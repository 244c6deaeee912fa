// Package diskio simulates a page-granular disk with an LRU page cache and
// a sequential/random access cost model.
//
// This reproduces the evaluation methodology of Section 5.5 of the paper,
// which follows Deshpande et al. (EDBT 2008) and Padmanabhan & Deshpande
// (PVLDB 2010): disk IO costs are computed from a log of page accesses with
// a 32 KiB page size and a 16-page LRU cache doing a 1-page lookahead on
// each page access, charging 1 ms per sequential access and 10 ms per
// random access. The simulated IO time is then added to the measured
// in-memory compute time to obtain disk-based response times. No real
// sleeping occurs; the clock is an accumulator.
package diskio

import (
	"fmt"
	"io"
	"sync"
)

// CostModel parameterizes the simulated disk.
type CostModel struct {
	PageSize   int     // bytes per page
	CachePages int     // LRU cache capacity in pages
	Lookahead  int     // pages prefetched after each on-demand fetch
	SeqCostMS  float64 // cost of a sequential page fetch
	RandCostMS float64 // cost of a random page fetch
}

// DefaultCostModel returns the paper's configuration: 32 KiB pages, 16-page
// LRU cache, 1-page lookahead, 1 ms sequential and 10 ms random accesses.
func DefaultCostModel() CostModel {
	return CostModel{
		PageSize:   32 * 1024,
		CachePages: 16,
		Lookahead:  1,
		SeqCostMS:  1,
		RandCostMS: 10,
	}
}

// Validate reports configuration errors.
func (m CostModel) Validate() error {
	if m.PageSize <= 0 {
		return fmt.Errorf("diskio: PageSize must be positive, got %d", m.PageSize)
	}
	if m.CachePages <= 0 {
		return fmt.Errorf("diskio: CachePages must be positive, got %d", m.CachePages)
	}
	if m.Lookahead < 0 {
		return fmt.Errorf("diskio: Lookahead must be non-negative, got %d", m.Lookahead)
	}
	if m.SeqCostMS < 0 || m.RandCostMS < 0 {
		return fmt.Errorf("diskio: costs must be non-negative")
	}
	return nil
}

// Stats is the access log summary of a Disk.
type Stats struct {
	Reads        int     // ReadAt calls served
	BytesRead    int64   // payload bytes returned to callers
	PageAccesses int     // on-demand page touches (hits + misses)
	CacheHits    int     // on-demand touches served from cache
	CacheMisses  int     // on-demand touches that faulted
	SeqFetches   int     // physical fetches charged at sequential cost
	RandFetches  int     // physical fetches charged at random cost
	Prefetches   int     // lookahead fetches (also counted in Seq/RandFetches)
	IOTimeMS     float64 // total simulated IO time
}

// pageKey identifies a cached page.
type pageKey struct {
	file int
	page int64
}

// lruNode is a doubly-linked LRU list node.
type lruNode struct {
	key        pageKey
	prev, next *lruNode
}

// lruCache is a fixed-capacity LRU set of pageKeys.
type lruCache struct {
	capacity int
	items    map[pageKey]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
}

func newLRU(capacity int) *lruCache {
	return &lruCache{capacity: capacity, items: make(map[pageKey]*lruNode, capacity)}
}

func (c *lruCache) contains(k pageKey) bool {
	_, ok := c.items[k]
	return ok
}

// touch marks k most-recently-used; it must already be present.
func (c *lruCache) touch(k pageKey) {
	n := c.items[k]
	if n == c.head {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// insert adds k (assumed absent), evicting the LRU entry if full.
func (c *lruCache) insert(k pageKey) {
	if len(c.items) >= c.capacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.items, evict.key)
	}
	n := &lruNode{key: k}
	c.items[k] = n
	c.pushFront(n)
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Disk is the simulated disk. File contents are held in memory; ReadAt
// copies bytes out while logging page-level costs. Disk is safe for
// concurrent use, though cost accounting models a single disk head, so
// interleaved readers will (realistically) degrade each other's
// sequentiality.
type Disk struct {
	mu      sync.Mutex
	model   CostModel
	names   map[string]int
	files   [][]byte
	cache   *lruCache
	headSet bool
	headKey pageKey // last physically fetched page
	stats   Stats
}

// NewDisk creates a simulated disk under the given cost model.
func NewDisk(model CostModel) (*Disk, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Disk{
		model: model,
		names: make(map[string]int),
		cache: newLRU(model.CachePages),
	}, nil
}

// CreateFile registers a file with the given contents. The Disk takes
// ownership of data; callers must not mutate it afterwards.
func (d *Disk) CreateFile(name string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.names[name]; exists {
		return fmt.Errorf("diskio: file %q already exists", name)
	}
	d.names[name] = len(d.files)
	d.files = append(d.files, data)
	return nil
}

// FileSize reports the size of a registered file.
func (d *Disk) FileSize(name string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.names[name]
	if !ok {
		return 0, fmt.Errorf("diskio: no such file %q", name)
	}
	return int64(len(d.files[id])), nil
}

// Stats returns a snapshot of the access statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the statistics (the cache and head position persist, as
// they would across queries on a live system).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// DropCaches empties the page cache and forgets the head position, so the
// next fetch is charged at random cost. Used to give each simulated query a
// cold cache when experiments call for it.
func (d *Disk) DropCaches() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cache = newLRU(d.model.CachePages)
	d.headSet = false
}

// ReadAt reads len(p) bytes from the named file at offset off, simulating
// page faults for every touched page. It follows the io.ReaderAt contract:
// a read truncated by EOF returns the bytes read and io.EOF.
func (d *Disk) ReadAt(name string, p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.names[name]
	if !ok {
		return 0, fmt.Errorf("diskio: no such file %q", name)
	}
	if off < 0 {
		return 0, fmt.Errorf("diskio: negative offset %d", off)
	}
	data := d.files[id]
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	d.stats.Reads++
	d.stats.BytesRead += int64(n)

	ps := int64(d.model.PageSize)
	first := off / ps
	last := (off + int64(n) - 1) / ps
	lastFilePage := (int64(len(data)) - 1) / ps
	for page := first; page <= last; page++ {
		d.touchPage(id, page, lastFilePage, false)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// touchPage simulates one page access. Prefetched pages charge IO cost but
// do not count as on-demand accesses.
func (d *Disk) touchPage(file int, page, lastFilePage int64, prefetch bool) {
	k := pageKey{file, page}
	if !prefetch {
		d.stats.PageAccesses++
	}
	if d.cache.contains(k) {
		if !prefetch {
			d.stats.CacheHits++
			d.cache.touch(k)
		}
		return
	}
	if !prefetch {
		d.stats.CacheMisses++
	} else {
		d.stats.Prefetches++
	}
	// Physical fetch: sequential iff it continues the previous fetch.
	sequential := d.headSet && d.headKey.file == file && page == d.headKey.page+1
	if sequential {
		d.stats.SeqFetches++
		d.stats.IOTimeMS += d.model.SeqCostMS
	} else {
		d.stats.RandFetches++
		d.stats.IOTimeMS += d.model.RandCostMS
	}
	d.headSet = true
	d.headKey = k
	d.cache.insert(k)

	if !prefetch {
		for ahead := int64(1); ahead <= int64(d.model.Lookahead); ahead++ {
			next := page + ahead
			if next > lastFilePage {
				break
			}
			d.touchPage(file, next, lastFilePage, true)
		}
	}
}

// File returns an io.ReaderAt view over one registered file, so simulated
// files can be handed to code written against the standard interface.
func (d *Disk) File(name string) (*File, error) {
	d.mu.Lock()
	id, ok := d.names[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("diskio: no such file %q", name)
	}
	_ = id
	return &File{disk: d, name: name}, nil
}

// File is an io.ReaderAt bound to one simulated file.
type File struct {
	disk *Disk
	name string
}

// ReadAt implements io.ReaderAt with simulated cost accounting.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.disk.ReadAt(f.name, p, off)
}

// Size reports the file's length.
func (f *File) Size() (int64, error) {
	return f.disk.FileSize(f.name)
}

var _ io.ReaderAt = (*File)(nil)
