package svm

import (
	"runtime"
	"sync"
)

// defaultCacheRows is the row-cache capacity when Params.CacheRows is zero.
const defaultCacheRows = 768

// parallelRowMin is the training-set size above which a cache miss shards
// the row computation across a worker pool; below it the spawn overhead
// exceeds the fill cost (a row fill is O(n·dim)).
const parallelRowMin = 2048

// rowEntry is one cached kernel row on the recency list.
type rowEntry struct {
	idx        int
	row        []float64
	prev, next *rowEntry
}

// rowCache is a true LRU cache of kernel-matrix rows: every lookup that
// touches a cached row — full-row fetches and single-element at lookups
// alike — refreshes its recency, and eviction removes the least recently
// used row, reusing its backing slice for the incoming one so steady-state
// misses allocate nothing.
//
// Sizing: capacity is counted in rows. Each cached row holds n float64s, so
// the byte budget is cap × n × 8 — the default 768 rows over the
// paper-scale n ≈ 4.3k training set is ~26 MiB.
type rowCache struct {
	k     Kernel
	rk    rowKernel
	d     *designMatrix
	cap   int
	rows  map[int]*rowEntry
	head  *rowEntry // most recently used
	tail  *rowEntry // least recently used
	diags []float64

	// fillWorkers shards row fills when the rows are long enough to pay
	// for the fan-out.
	fillWorkers int
}

func newRowCache(k Kernel, d *designMatrix, capRows int) *rowCache {
	if capRows <= 0 {
		capRows = defaultCacheRows
	}
	// The solver holds up to two rows at once (update's rowI/rowJ), and
	// eviction reuses the victim's backing slice: a single-row cache would
	// overwrite a row the solver is still reading. Two rows is the floor.
	if capRows < 2 {
		capRows = 2
	}
	rk := rowKernelFor(k)
	diags := make([]float64, d.n)
	for i := range diags {
		x := d.row(i)
		diags[i] = k.Eval(x, x)
	}
	return &rowCache{
		k: k, rk: rk, d: d, cap: capRows,
		rows: make(map[int]*rowEntry, capRows), diags: diags,
		fillWorkers: runtime.GOMAXPROCS(0),
	}
}

// diag returns K(x_i, x_i) from the precomputed diagonal.
func (c *rowCache) diag(i int) float64 { return c.diags[i] }

// len reports the number of cached rows.
func (c *rowCache) len() int { return len(c.rows) }

// touch moves e to the front of the recency list.
func (c *rowCache) touch(e *rowEntry) {
	if c.head == e {
		return
	}
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev = nil
	e.next = c.head
	c.head.prev = e
	c.head = e
}

// pushFront inserts a detached entry at the front of the recency list.
func (c *rowCache) pushFront(e *rowEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

// row returns the full kernel row for base index i, computing and caching
// it on demand.
func (c *rowCache) row(i int) []float64 {
	if e, ok := c.rows[i]; ok {
		c.touch(e)
		return e.row
	}
	var e *rowEntry
	if len(c.rows) >= c.cap && c.tail != nil {
		// Evict the least recently used row and reuse its slice.
		e = c.tail
		delete(c.rows, e.idx)
		c.tail = e.prev
		if c.tail != nil {
			c.tail.next = nil
		} else {
			c.head = nil
		}
	} else {
		e = &rowEntry{row: make([]float64, c.d.n)}
	}
	e.idx = i
	c.fill(i, e.row)
	c.rows[i] = e
	c.pushFront(e)
	return e.row
}

// at returns K(x_i, x_j): from a cached row when one is available
// (refreshing its recency — single-element lookups participate in the LRU
// accounting), otherwise computed directly without caching. The solver's
// hot paths index full rows and no longer call at; it remains the cache's
// point-lookup API (exercised by the unit tests).
func (c *rowCache) at(i, j int) float64 {
	if e, ok := c.rows[i]; ok {
		c.touch(e)
		return e.row[j]
	}
	if e, ok := c.rows[j]; ok {
		c.touch(e)
		return e.row[i]
	}
	return c.k.Eval(c.d.row(i), c.d.row(j))
}

// fill computes row i into dst, sharding across the worker pool when the
// row is long enough for the fan-out to pay off.
func (c *rowCache) fill(i int, dst []float64) {
	n := c.d.n
	if c.fillWorkers <= 1 || n < parallelRowMin {
		c.rk.fillRow(c.d, i, 0, n, dst)
		return
	}
	workers := c.fillWorkers
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			c.rk.fillRow(c.d, i, lo, hi, dst)
		}(lo, hi)
	}
	wg.Wait()
}
