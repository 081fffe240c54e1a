package lru

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New[int, int](0)
}

func TestPutGet(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %v,%v", v, ok)
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("Get(c) should miss")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[int, int](3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1)    // 1 now MRU; LRU order: 2,3,1
	c.Put(4, 4) // evicts 2
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if !c.Contains(k) {
			t.Fatalf("%d should be cached", k)
		}
	}
}

func TestPutRefreshesRecency(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(1, 10) // update refreshes 1
	c.Put(3, 3)  // evicts 2
	if c.Contains(2) || !c.Contains(1) {
		t.Fatal("update must refresh recency")
	}
	if v, _ := c.Get(1); v != 10 {
		t.Fatal("update must replace value")
	}
}

func TestPeekDoesNotRefresh(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	if v, ok := c.Peek(1); !ok || v != 1 {
		t.Fatal("Peek miss")
	}
	c.Put(3, 3) // evicts 1 (Peek must not have refreshed it)
	if c.Contains(1) {
		t.Fatal("Peek must not refresh recency")
	}
}

func TestRemove(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	if !c.Remove(1) {
		t.Fatal("Remove should report presence")
	}
	if c.Remove(1) {
		t.Fatal("double Remove should report absence")
	}
	if c.Len() != 0 {
		t.Fatal("Len after remove")
	}
}

func TestOnEvictCallback(t *testing.T) {
	var evicted []int
	c := New[int, string](1)
	c.OnEvict(func(k int, v string) { evicted = append(evicted, k) })
	c.Put(1, "a")
	c.Put(2, "b") // evicts 1
	c.Remove(2)   // callback fires for explicit remove too
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted = %v", evicted)
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d,%d", hits, misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
	c.Clear()
	if c.HitRate() != 0 || c.Len() != 0 {
		t.Fatal("Clear must reset")
	}
}

func TestEvictionCount(t *testing.T) {
	c := New[int, int](1)
	for i := 0; i < 5; i++ {
		c.Put(i, i)
	}
	if _, _, ev := c.Stats(); ev != 4 {
		t.Fatalf("evictions = %d, want 4", ev)
	}
}

func TestSingleCapacityChurn(t *testing.T) {
	c := New[int, int](1)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
		if !c.Contains(i) || c.Len() != 1 {
			t.Fatalf("iteration %d: len=%d", i, c.Len())
		}
	}
}

// Property: Len never exceeds capacity and the most recently inserted key is
// always present.
func TestCapacityInvariantProperty(t *testing.T) {
	c := New[uint8, int](8)
	i := 0
	fn := func(key uint8) bool {
		i++
		c.Put(key, i)
		if c.Len() > c.Cap() {
			return false
		}
		v, ok := c.Get(key)
		return ok && v == i
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache agrees with a reference model (map + recency slice)
// under a random op sequence.
func TestModelEquivalenceProperty(t *testing.T) {
	const capN = 4
	c := New[uint8, uint8](capN)
	model := map[uint8]uint8{}
	var order []uint8 // LRU..MRU

	touch := func(k uint8) {
		for i, x := range order {
			if x == k {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append(order, k)
	}

	fn := func(op bool, k, v uint8) bool {
		if op { // Put
			_, existed := model[k]
			model[k] = v
			touch(k)
			if !existed && len(model) > capN {
				lru := order[0]
				order = order[1:]
				delete(model, lru)
			}
			c.Put(k, v)
		} else { // Get
			mv, mok := model[k]
			cv, cok := c.Get(k)
			if mok {
				touch(k)
			}
			if mok != cok || (mok && mv != cv) {
				return false
			}
		}
		return len(model) == c.Len()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPutGet(b *testing.B) {
	c := New[int, int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(i%4096, i)
		c.Get((i * 7) % 4096)
	}
}
