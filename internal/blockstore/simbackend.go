package blockstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Sim is the in-memory backend: sealed containers live in a process map,
// exactly as they implicitly did when the simulated disk.Device held the
// bytes itself. It is the default backend and the baseline every other
// implementation is measured against — engine stats and recipes through Sim
// are bit-identical to the pre-blockstore code.
type Sim struct {
	mu        sync.RWMutex
	storeData bool
	infos     map[uint32]ContainerInfo
	data      map[uint32][]byte // sealed sections: never written after Seal
	closed    bool

	zero zeroView // what a metadata-only store reads
}

// NewSim returns an in-memory backend. storeData selects whether Seal
// retains data sections (content verification) or only their lengths
// (metadata-only simulation).
func NewSim(storeData bool) *Sim {
	return &Sim{
		storeData: storeData,
		infos:     make(map[uint32]ContainerInfo),
		data:      make(map[uint32][]byte),
	}
}

func (s *Sim) Name() string     { return "sim" }
func (s *Sim) StoresData() bool { return s.storeData }

func (s *Sim) Seal(ctx context.Context, info ContainerInfo, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.infos[info.ID] = cloneInfo(info)
	if s.storeData {
		// One pass: a make would zero the section first, only to copy over it.
		s.data[info.ID] = append([]byte(nil), data...)
	}
	return nil
}

func (s *Sim) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	info, ok := s.infos[id]
	if !ok {
		return nil, fmt.Errorf("sim backend: container %d not sealed", id)
	}
	if !s.storeData {
		return s.zero.get(info.DataFill), nil
	}
	// The sealed section itself, not a copy: Seal stored a private buffer
	// that nothing writes again, and readers hold it read-only (Backend).
	return s.data[id], nil
}

func (s *Sim) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	return ReadDataRangeNaive(ctx, s, ids)
}

func (s *Sim) List(ctx context.Context) ([]ContainerInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]ContainerInfo, 0, len(s.infos))
	for _, info := range s.infos {
		out = append(out, cloneInfo(info))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (s *Sim) Sync(ctx context.Context) error { return ctx.Err() }

func (s *Sim) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Quarantine drops the container from the live set. In-memory stores have no
// forensics directory; the reason is recorded only by the caller's report.
func (s *Sim) Quarantine(ctx context.Context, id uint32, reason string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.infos[id]; !ok {
		return fmt.Errorf("sim backend: quarantine: container %d not sealed", id)
	}
	delete(s.infos, id)
	delete(s.data, id)
	return nil
}

// Drop removes a batch of merged-away containers from the live set. The
// in-memory store needs no intent record: map deletes are atomic under the
// lock and nothing survives a crash anyway.
func (s *Sim) Drop(ctx context.Context, ids []uint32, reason string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, id := range ids {
		if _, ok := s.infos[id]; !ok {
			return fmt.Errorf("sim backend: drop: container %d not sealed", id)
		}
	}
	for _, id := range ids {
		delete(s.infos, id)
		delete(s.data, id)
	}
	return nil
}

func cloneInfo(info ContainerInfo) ContainerInfo {
	out := info
	out.Entries = make([]ChunkMeta, len(info.Entries))
	copy(out.Entries, info.Entries)
	return out
}
