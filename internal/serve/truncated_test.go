package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/blockstore"
)

// failNthRead fails the failAt-th data read (counting from 1) after arm.
type failNthRead struct {
	blockstore.Backend
	failAt atomic.Int64
	reads  atomic.Int64
}

func (f *failNthRead) arm(n int64) {
	f.reads.Store(0)
	f.failAt.Store(n)
}

func (f *failNthRead) hit() error {
	if n := f.failAt.Load(); n > 0 && f.reads.Add(1) == n {
		return errors.New("injected read failure")
	}
	return nil
}

func (f *failNthRead) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	return f.Backend.ReadData(ctx, id)
}

func (f *failNthRead) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	return f.Backend.ReadDataRange(ctx, ids)
}

// TestRestoreFailureIsVisibleToClient: a restore that fails before anything
// was sent is a clean 500; one that fails after part of the body went out
// must not look like a complete 200 — the client gets the declared length
// and an unexpected EOF short of it.
func TestRestoreFailureIsVisibleToClient(t *testing.T) {
	var be *failNthRead
	_, _, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true,
			WrapBackend: func(inner blockstore.Backend) blockstore.Backend {
				be = &failNthRead{Backend: inner}
				return be
			}},
		Config{RestoreVerify: true})

	// Incompressible, so the stream spans several containers and the later
	// reads happen well past the first 256 KiB flush.
	data := make([]byte, 14<<20)
	rand.New(rand.NewSource(5)).Read(data)
	resp := upload(t, ts.URL, "t0", "big", data)
	resp.Body.Close() //nolint:errcheck // status only
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}
	url := ts.URL + "/v1/backups/big/restore"

	get := func() (*http.Response, []byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // read to its end or its error
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	resp, body, err := get()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("healthy restore: %v, %s, %d bytes", err, resp.Status, len(body))
	}
	if resp.ContentLength != int64(len(data)) {
		t.Fatalf("Content-Length %d, want %d", resp.ContentLength, len(data))
	}

	be.arm(1)
	resp, body, err = get()
	if err != nil || resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failure before the first byte: %v, %s, want a clean 500", err, resp.Status)
	}
	if !bytes.Contains(body, []byte("injected read failure")) {
		t.Fatalf("500 body does not name the cause: %s", body)
	}

	be.arm(3)
	resp, body, err = get()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream failure: status %s, want the 200 that was already sent", resp.Status)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-stream failure: client read %d of %d bytes with err %v, want unexpected EOF",
			len(body), len(data), err)
	}
	if len(body) == 0 || len(body) >= len(data) || !bytes.Equal(body, data[:len(body)]) {
		t.Fatalf("mid-stream failure: %d bytes received, want a proper prefix of the %d", len(body), len(data))
	}

	// The server survives the abort and serves the next restore whole.
	be.arm(0)
	resp, body, err = get()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("restore after an aborted one: %v, %s, %d bytes", err, resp.Status, len(body))
	}
}
