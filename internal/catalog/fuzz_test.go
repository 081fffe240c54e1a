package catalog

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/blockstore"
)

// FuzzCatalogReplay feeds arbitrary bytes to the log's replay. Whatever they
// hold it must return — entries and a valid prefix, or an error — without a
// panic and without allocating from a length the input's own size has not
// vouched for (a frame or a ref count that says four billion in a hundred
// bytes). What replays cleanly must say the same again as a checkpoint of
// itself: the commit record is canonical.
func FuzzCatalogReplay(f *testing.F) {
	a, b := sampleEntry("a", 5), sampleEntry("b", 2)
	img, err := appendCommit(nil, a)
	for _, rec := range []func([]byte) ([]byte, error){
		commitRec(b), remapRec(Remap{Label: "a", Moves: someMoves(2)}), forgetRec("b"),
	} {
		if err == nil {
			img, err = rec(img)
		}
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(img)
	f.Add(img[:len(img)-3])                                // torn tail
	f.Add(append(bytes.Clone(img), "DFC1\xff\xff\xff"...)) // torn header after a whole log
	flipped := bytes.Clone(img)
	flipped[blockstore.FrameHeader+7] ^= 0x20 // damage with valid records after it
	f.Add(flipped)
	f.Add([]byte("DFC1\xff\xff\xff\xff\x01\x00\x00\x00\x00")) // a 4 GiB frame in 13 bytes
	huge, _ := blockstore.EndFrame(append(blockstore.BeginFrame(nil, magic, kindCommit), 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff), 0)
	f.Add(huge) // a good CRC over a ref count of 4 G
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, valid, err := replayBytes(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
		}
		if err != nil {
			return
		}
		var re []byte
		for _, e := range entries {
			if re, err = appendCommit(re, e); err != nil {
				t.Fatal(err)
			}
		}
		again, valid, err := replayBytes(re)
		if err != nil || valid != int64(len(re)) || len(again) != len(entries) {
			t.Fatalf("a checkpoint of what replayed does not replay: %d of %d bytes, %d of %d entries, %v",
				valid, len(re), len(again), len(entries), err)
		}
		for i := range entries {
			if again[i].Label != entries[i].Label || !bytes.Equal(again[i].Stats, entries[i].Stats) ||
				!slices.Equal(again[i].Recipe.Refs, entries[i].Recipe.Refs) {
				t.Fatalf("entry %d changed across a checkpoint", i)
			}
		}
	})
}
