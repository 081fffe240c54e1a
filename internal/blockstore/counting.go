package blockstore

import (
	"context"
	"sync/atomic"
)

// Counting wraps a Backend and counts its physical operations. It exists to
// make read claims testable — that concurrent restores each read what one
// restore alone reads, or that a restore reads the sections its plan
// schedules and no more — and only a counter at the backend seam can verify
// that.
// All counters are atomic, so a Counting backend is safe under the same
// concurrency as the backend it wraps.
//
// Of the optional interfaces Counting forwards Dropper (a maintenance epoch
// must work over it) but not Quarantiner, so it is for tests and benchmarks,
// not for wrapping a production file backend that needs repair support.
type Counting struct {
	be Backend

	dataReads atomic.Int64 // container data sections fetched (ReadData + ids per ReadDataRange)
	dataBytes atomic.Int64 // bytes of those sections
}

// NewCounting wraps be with operation counters.
func NewCounting(be Backend) *Counting { return &Counting{be: be} }

// DataSectionReads returns the number of container data sections physically
// fetched: one per ReadData call plus one per id of every ReadDataRange.
func (c *Counting) DataSectionReads() int64 { return c.dataReads.Load() }

// DataBytesRead returns the bytes of the data sections fetched.
func (c *Counting) DataBytesRead() int64 { return c.dataBytes.Load() }

// ResetCounts zeroes all counters (between benchmark phases).
func (c *Counting) ResetCounts() {
	c.dataReads.Store(0)
	c.dataBytes.Store(0)
}

func (c *Counting) Name() string     { return c.be.Name() }
func (c *Counting) StoresData() bool { return c.be.StoresData() }

func (c *Counting) Seal(ctx context.Context, info ContainerInfo, data []byte) error {
	return c.be.Seal(ctx, info, data)
}

func (c *Counting) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	c.dataReads.Add(1)
	data, err := c.be.ReadData(ctx, id)
	c.dataBytes.Add(int64(len(data)))
	return data, err
}

func (c *Counting) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	c.dataReads.Add(int64(len(ids)))
	out, err := c.be.ReadDataRange(ctx, ids)
	for _, data := range out {
		c.dataBytes.Add(int64(len(data)))
	}
	return out, err
}

func (c *Counting) List(ctx context.Context) ([]ContainerInfo, error) { return c.be.List(ctx) }
func (c *Counting) Sync(ctx context.Context) error                    { return c.be.Sync(ctx) }
func (c *Counting) Close() error                                      { return c.be.Close() }

// Drop passes through when the inner backend supports it.
func (c *Counting) Drop(ctx context.Context, ids []uint32, reason string) error {
	if d, ok := c.be.(Dropper); ok {
		return d.Drop(ctx, ids, reason)
	}
	return ErrNoDrop
}
