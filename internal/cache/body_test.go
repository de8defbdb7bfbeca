package cache

import (
	"bytes"
	"sync"
	"testing"
)

// hit answers one exact hit on a q2 query the way the serving layer does:
// append the kept body when the entry has one, else encode the region and
// offer the bytes back. It returns the served bytes and whether they were
// kept ones, and fails the test on a miss.
func hit(t *testing.T, c *Cache, version uint64, x, y float64, k int, eps float64) ([]byte, bool) {
	t.Helper()
	r, body, ok := c.Get(version, "E-PT", q2(x, y, k, eps))
	if !ok {
		t.Fatalf("miss for (%g, %g, k=%d, ε=%g) at version %d", x, y, k, eps, version)
	}
	if b, ok := body.Append(nil); ok {
		return b, true
	}
	b, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	body.Keep(b)
	return b, false
}

// checkBodies asserts the kept-byte accounting: the total equals the sum
// of the live entries' bodies and stays within the budget.
func checkBodies(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := 0
	for _, e := range c.exact {
		sum += len(e.body)
	}
	if sum != c.bodyBytes || c.bodyBytes > c.bodyBudget {
		t.Fatalf("kept bytes: total %d, live entries hold %d, budget %d", c.bodyBytes, sum, c.bodyBudget)
	}
}

// wantBytes is the fresh encoding a served hit must equal.
func wantBytes(t *testing.T, c *Cache, version uint64, x, y float64, k int, eps float64) []byte {
	t.Helper()
	c.mu.Lock()
	e := c.exact[fullKey(version, "E-PT", q2(x, y, k, eps))]
	c.mu.Unlock()
	b, err := e.region.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBodyKeptFromFirstHit(t *testing.T) {
	c := New(8)
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.1), region(0.2, 0.6))
	if st := c.Stats(); st.BodyBytes != 0 {
		t.Fatalf("Put kept %d body bytes; only hits keep", st.BodyBytes)
	}
	want := wantBytes(t, c, 1, 0.4, 0.7, 2, 0.1)
	for i := 0; i < 3; i++ {
		got, kept := hit(t, c, 1, 0.4, 0.7, 2, 0.1)
		if kept != (i > 0) {
			t.Fatalf("hit %d served kept bytes = %v, want %v", i, kept, i > 0)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("hit %d: got %s, want %s", i, got, want)
		}
	}
	if st := c.Stats(); st.BodyBytes != int64(len(want)) || st.BodyServed != 2 {
		t.Fatalf("stats %+v, want %d body bytes and 2 served", st, len(want))
	}
	checkBodies(t, c)
}

// Every way an entry loses or changes its region releases the kept bytes,
// and the next hit serves the current region's encoding.
func TestBodyReleasedAndReencoded(t *testing.T) {
	c := New(2)
	keep := func(version uint64, x float64) {
		t.Helper()
		hit(t, c, version, x, 0.5, 1, 0.1)
		if _, kept := hit(t, c, version, x, 0.5, 1, 0.1); !kept {
			t.Fatalf("(%g) no body kept after the first hit", x)
		}
	}
	same := func(version uint64, x float64) {
		t.Helper()
		got, _ := hit(t, c, version, x, 0.5, 1, 0.1)
		if want := wantBytes(t, c, version, x, 0.5, 1, 0.1); !bytes.Equal(got, want) {
			t.Fatalf("(%g, version %d): served %s, want %s", x, version, got, want)
		}
		checkBodies(t, c)
	}

	// Replacement: a Put over a kept entry drops the old region's bytes.
	c.Put(1, "E-PT", q2(0.1, 0.5, 1, 0.1), region(0.1, 0.2))
	keep(1, 0.1)
	c.Put(1, "E-PT", q2(0.1, 0.5, 1, 0.1), region(0.3, 0.9))
	if st := c.Stats(); st.BodyBytes != 0 {
		t.Fatalf("replacement left %d body bytes", st.BodyBytes)
	}
	same(1, 0.1)
	same(1, 0.1)

	// PutInner over the key: inexact entries never hit, and their bytes
	// are gone; an exact Put afterwards serves its own region.
	c.PutInner(1, "E-PT", q2(0.1, 0.5, 1, 0.1), region(0.4, 0.5))
	if st := c.Stats(); st.BodyBytes != 0 {
		t.Fatalf("PutInner left %d body bytes", st.BodyBytes)
	}
	c.Put(1, "E-PT", q2(0.1, 0.5, 1, 0.1), region(0.15, 0.45))
	same(1, 0.1)
	same(1, 0.1)

	// Eviction: capacity 2, a third entry evicts the least recent one.
	c.Put(1, "E-PT", q2(0.2, 0.5, 1, 0.1), region(0.2, 0.3))
	keep(1, 0.2)
	c.Put(1, "E-PT", q2(0.3, 0.5, 1, 0.1), region(0.0, 1.0)) // evicts 0.1
	checkBodies(t, c)
	c.Put(1, "E-PT", q2(0.1, 0.5, 1, 0.1), region(0.6, 0.7)) // evicts 0.2
	checkBodies(t, c)
	if st := c.Stats(); st.BodyBytes != 0 {
		t.Fatalf("evictions left %d body bytes", st.BodyBytes)
	}
	same(1, 0.1)
	same(1, 0.1)

	// Epoch change: the next version's entry for the same query serves its
	// own region, and Prune releases the dead generation's bytes.
	c.Put(2, "E-PT", q2(0.1, 0.5, 1, 0.1), region(0.05, 0.95))
	same(2, 0.1)
	same(2, 0.1)
	c.Prune(2)
	checkBodies(t, c)
	same(2, 0.1)
	c.Prune(3)
	if st := c.Stats(); st.Entries != 0 || st.BodyBytes != 0 {
		t.Fatalf("after pruning every entry: %+v, want no entries and 0 body bytes", st)
	}
}

// The budget caps the total: an encoding that does not fit is refused,
// its size recorded so later hits do not offer it again, and offered once
// released bytes make room.
func TestBodyBudget(t *testing.T) {
	c := New(8)
	xs := []float64{0.1, 0.2, 0.3, 0.4}
	for i, hi := range []float64{0.25, 0.35, 0.45, 0.55} { // equal-length encodings
		c.Put(1, "E-PT", q2(xs[i], 0.5, 1, 0.1), region(0.1, hi))
	}
	size := len(wantBytes(t, c, 1, 0.1, 0.5, 1, 0.1))
	c.bodyBudget = 2*size + size/2 // room for two bodies
	for _, x := range xs {
		hit(t, c, 1, x, 0.5, 1, 0.1)
		checkBodies(t, c)
	}
	if st := c.Stats(); st.BodyBytes != int64(2*size) {
		t.Fatalf("kept %d bytes, want two bodies of %d", st.BodyBytes, size)
	}
	// The refused entries recorded their size: their hits no longer offer.
	for i := 2; i < 4; i++ {
		_, body, _ := c.Get(1, "E-PT", q2(xs[i], 0.5, 1, 0.1))
		if body.offer || body.bytes != nil {
			t.Fatalf("refused entry %d: offer %v, kept %d bytes", i, body.offer, len(body.bytes))
		}
	}
	// Releasing a kept body makes room: the next hit on a refused entry
	// offers again and is kept.
	c.Put(1, "E-PT", q2(0.1, 0.5, 1, 0.1), region(0.5, 0.6))
	hit(t, c, 1, 0.3, 0.5, 1, 0.1)
	if _, kept := hit(t, c, 1, 0.3, 0.5, 1, 0.1); !kept {
		t.Fatal("a refused entry was not kept once the budget had room")
	}
	checkBodies(t, c)
	c.Prune(2)
	if st := c.Stats(); st.BodyBytes != 0 {
		t.Fatalf("empty cache holds %d body bytes", st.BodyBytes)
	}
}

// Concurrent first hits on one entry: every hit encodes and offers its
// bytes, exactly one copy is kept, and every later hit serves it. Run
// under -race.
func TestBodyConcurrentFirstHits(t *testing.T) {
	c := New(8)
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.1), region(0.2, 0.6))
	want := wantBytes(t, c, 1, 0.4, 0.7, 2, 0.1)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				r, body, ok := c.Get(1, "E-PT", q2(0.4, 0.7, 2, 0.1))
				if !ok {
					errs <- "miss"
					return
				}
				got, kept := body.Append(nil)
				if !kept {
					var err error
					if got, err = r.AppendJSON(nil); err != nil {
						errs <- err.Error()
						return
					}
					body.Keep(got)
				}
				if !bytes.Equal(got, want) {
					errs <- "served bytes differ: " + string(got)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := c.Stats(); st.BodyBytes != int64(len(want)) || st.BodyServed == 0 {
		t.Fatalf("stats %+v, want one kept body of %d bytes and served hits", st, len(want))
	}
	checkBodies(t, c)
}

// A hit whose entry changed between lookup and Keep — replaced, evicted or
// pruned — keeps nothing: its bytes encode a region the cache no longer
// serves under that entry.
func TestBodyStaleKeepIgnored(t *testing.T) {
	c := New(1)
	q := q2(0.4, 0.7, 2, 0.1)
	stale := func(change func()) {
		t.Helper()
		c.Put(1, "E-PT", q, region(0.2, 0.6))
		r, body, _ := c.Get(1, "E-PT", q)
		enc, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		change()
		body.Keep(enc)
		checkBodies(t, c)
		if st := c.Stats(); st.BodyBytes != 0 {
			t.Fatalf("a stale hit kept %d bytes", st.BodyBytes)
		}
	}
	stale(func() { c.Put(1, "E-PT", q, region(0.3, 0.9)) })                  // replaced
	stale(func() { c.Put(1, "E-PT", q2(0.1, 0.1, 1, 0), region(0.1, 0.2)) }) // evicted
	stale(func() { c.Prune(2) })                                             // pruned
	stale(func() { c.Prune(2); c.Put(1, "E-PT", q, region(0.2, 0.6)) })      // same key, new entry
}
