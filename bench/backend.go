package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
)

// backendCounts is what one cycle passed through the backend seam.
type backendCounts struct {
	sealCalls, sealBytes, sealNs atomic.Int64 // bytes: data section + encoded metadata
	readCalls, readBytes, readNs atomic.Int64
	syncCalls, syncNs            atomic.Int64
	dropCalls, dropNs            atomic.Int64
	closeNs                      atomic.Int64
}

// meteredBackend is the benchmark's Options.WrapBackend wrapper: it counts
// and times every physical operation (always — write_amp needs the seal
// bytes, and two clock reads per 4 MiB container cost nothing) and, on a
// traced run, records each as a span under the op that caused it.
type meteredBackend struct {
	inner blockstore.Backend
	n     *backendCounts
	rec   *recorder
}

// metaWireBytes is the encoded size of a container's metadata as the file
// backend writes it (blockstore.EncodeMeta: u32 count, then per entry a
// 32-byte fingerprint, u32 size, u64 segment, i64 offset).
func metaWireBytes(entries int) int64 { return 4 + int64(entries)*(32+4+8+8) }

// timed runs one backend call, adding its wall time to ns and recording its
// span.
func (m *meteredBackend) timed(name string, s side, ns *atomic.Int64, fn func()) {
	parent := m.rec.parentFor(s)
	start := time.Now()
	fn()
	ns.Add(int64(time.Since(start)))
	m.rec.call(name, parent, start)
}

func (m *meteredBackend) Name() string     { return m.inner.Name() }
func (m *meteredBackend) StoresData() bool { return m.inner.StoresData() }

func (m *meteredBackend) Seal(ctx context.Context, info blockstore.ContainerInfo, data []byte) (err error) {
	m.n.sealCalls.Add(1)
	m.n.sealBytes.Add(int64(len(data)) + metaWireBytes(len(info.Entries)))
	m.timed("blockstore.seal", writeSide, &m.n.sealNs, func() { err = m.inner.Seal(ctx, info, data) })
	return err
}

func (m *meteredBackend) ReadData(ctx context.Context, id uint32) (data []byte, err error) {
	m.n.readCalls.Add(1)
	m.timed("blockstore.read", readSide, &m.n.readNs, func() { data, err = m.inner.ReadData(ctx, id) })
	m.n.readBytes.Add(int64(len(data)))
	return data, err
}

func (m *meteredBackend) ReadDataRange(ctx context.Context, ids []uint32) (out [][]byte, err error) {
	m.n.readCalls.Add(1)
	m.timed("blockstore.read", readSide, &m.n.readNs, func() { out, err = m.inner.ReadDataRange(ctx, ids) })
	for _, d := range out {
		m.n.readBytes.Add(int64(len(d)))
	}
	return out, err
}

func (m *meteredBackend) List(ctx context.Context) ([]blockstore.ContainerInfo, error) {
	return m.inner.List(ctx)
}

func (m *meteredBackend) Sync(ctx context.Context) (err error) {
	m.n.syncCalls.Add(1)
	m.timed("blockstore.sync", writeSide, &m.n.syncNs, func() { err = m.inner.Sync(ctx) })
	return err
}

func (m *meteredBackend) Close() (err error) {
	m.timed("blockstore.close", writeSide, &m.n.closeNs, func() { err = m.inner.Close() })
	return err
}

// Drop forwards the container-merge reclaim (blockstore.Dropper); without
// it a maintenance epoch over a wrapped backend fails with ErrNoDrop.
func (m *meteredBackend) Drop(ctx context.Context, ids []uint32, reason string) (err error) {
	d, ok := m.inner.(blockstore.Dropper)
	if !ok {
		return blockstore.ErrNoDrop
	}
	m.n.dropCalls.Add(1)
	m.timed("blockstore.drop", writeSide, &m.n.dropNs, func() { err = d.Drop(ctx, ids, reason) })
	return err
}
