// Package store implements the local storage engine held by every peer in
// the overlay: an in-memory B+-tree keyed by keyspace.Key with ordered
// iteration, range scans, and the bulk split/merge operations the BATON
// protocol needs when a peer hands half of its content to a joining child or
// absorbs the content of a departing neighbour.
//
// A leaf keeps its values in one byte buffer, not one allocation each: the
// store holds a few pointers per leaf instead of one per item, so a garbage
// collection no longer marks every stored value. Put copies the value in;
// Get and every scan hand out read-only views of the buffer. A leaf never
// rewrites bytes it has handed out: an overwrite or a delete leaves the old
// bytes dead in place, a split moves the right half's values into a fresh
// buffer, and a leaf moves its live values into a fresh buffer when its
// buffer is full or more than half of its bytes are dead. A view therefore
// keeps its bytes for as long as the caller holds it, whatever the store
// does next.
package store

import (
	"fmt"
	"math"
	"slices"

	"baton/internal/keyspace"
)

// DefaultDegree is the default minimum degree of the B+-tree. Every node
// except the root holds between DefaultDegree-1 and 2*DefaultDegree-1 keys.
const DefaultDegree = 16

// Item is a single key/value pair stored at a peer.
type Item struct {
	Key   keyspace.Key
	Value []byte
}

// Store is an ordered key/value store backed by a B+-tree. The zero value is
// not usable; call New.
//
// Store is not safe for concurrent use; the owning peer serialises access.
type Store struct {
	degree int
	root   *node
	size   int
	leaves int // leaves in the chain, empty ones included
}

// node is a B+-tree node. Leaf nodes carry values and are linked through
// next; internal nodes carry child pointers and separator keys.
type node struct {
	leaf     bool
	keys     []keyspace.Key
	spans    []span  // leaf only, parallel to keys: where each value sits in vals
	vals     []byte  // leaf only: the value bytes, live and dead
	dead     int     // leaf only: bytes of vals no span points at
	children []*node // internal only, len(children) == len(keys)+1
	next     *node   // leaf only: right sibling for range scans
}

// span locates one value in its leaf's buffer: vals[off : off+n], or nil
// when off is nilOff.
type span struct{ off, n uint32 }

// nilOff marks the span of a nil value, which the store keeps apart from an
// empty one (the wire encodes them differently).
const nilOff = math.MaxUint32

// value returns the view of the value a span locates. Its capacity is
// clipped, so an append to it copies instead of reaching the next value.
func value(vals []byte, sp span) []byte {
	if sp.off == nilOff {
		return nil
	}
	end := sp.off + sp.n
	return vals[sp.off:end:end]
}

// store copies v to the end of the leaf's buffer and returns its span. A
// buffer without room for v is replaced by a fresh one holding the live
// values, never grown in place.
func (n *node) store(v []byte, maxKeys int) span {
	if v == nil {
		return span{off: nilOff}
	}
	if n.vals == nil || len(n.vals)+len(v) > cap(n.vals) {
		live := len(n.vals) - n.dead + len(v)
		n.repack(n.vals, max(arenaSize(live, len(n.keys), maxKeys), 2*live))
	}
	off := len(n.vals)
	if uint64(off)+uint64(len(v)) >= nilOff {
		panic("store: a leaf's values exceed 4 GiB")
	}
	n.vals = append(n.vals, v...)
	return span{off: uint32(off), n: uint32(len(v))}
}

// drop marks the bytes of sp dead.
func (n *node) drop(sp span) {
	if sp.off != nilOff {
		n.dead += int(sp.n)
	}
}

// tidy repacks the leaf once more than half of its buffer is dead.
func (n *node) tidy(maxKeys int) {
	if 2*n.dead > len(n.vals) {
		n.repack(n.vals, arenaSize(len(n.vals)-n.dead, len(n.keys), maxKeys))
	}
}

// repack copies the values of n's spans out of src into a fresh buffer of
// the given capacity and points the spans at the copies. src is left as it
// is: views handed out of it keep their bytes.
func (n *node) repack(src []byte, size int) {
	vals := make([]byte, 0, size) // never nil: an empty value must stay non-nil
	for i, sp := range n.spans {
		if sp.off != nilOff {
			n.spans[i].off = uint32(len(vals))
			vals = append(vals, src[sp.off:sp.off+sp.n]...)
		}
	}
	n.vals, n.dead = vals, 0
}

// liveBytes is the length of the values spans locate.
func liveBytes(spans []span) int {
	n := 0
	for _, sp := range spans {
		if sp.off != nilOff {
			n += int(sp.n)
		}
	}
	return n
}

// arenaSize is the capacity of a fresh buffer for a leaf of count keys
// whose values take live bytes. It leaves room for the leaf to fill up to
// maxKeys keys at the mean value size, so a leaf filling between two splits
// allocates its buffer once, but for no more than count+1 further values,
// so a small leaf of large values reserves about double, as append growth
// would.
func arenaSize(live, count, maxKeys int) int {
	if count == 0 {
		return live
	}
	return live + live/count*min(maxKeys-count, count+1)
}

// New returns an empty store with the default B+-tree degree.
func New() *Store { return NewWithDegree(DefaultDegree) }

// NewWithDegree returns an empty store whose B+-tree has the given minimum
// degree (must be at least 2).
func NewWithDegree(degree int) *Store {
	if degree < 2 {
		panic(fmt.Sprintf("store: degree %d < 2", degree))
	}
	return &Store{degree: degree, root: &node{leaf: true}, leaves: 1}
}

// Len returns the number of items in the store.
func (s *Store) Len() int { return s.size }

// maxKeys is the maximum number of keys a node may hold.
func (s *Store) maxKeys() int { return 2*s.degree - 1 }

// Put inserts or replaces the value for key. It stores a copy of value, so
// the caller may reuse its slice, and keeps nil apart from empty. It reports
// whether the key was newly inserted (true) or replaced (false).
func (s *Store) Put(key keyspace.Key, value []byte) bool {
	if len(s.root.keys) >= s.maxKeys() {
		old := s.root
		s.root = &node{children: []*node{old}}
		s.splitChild(s.root, 0)
	}
	inserted := s.insertNonFull(s.root, key, value)
	if inserted {
		s.size++
	}
	return inserted
}

func (s *Store) insertNonFull(n *node, key keyspace.Key, value []byte) bool {
	for {
		if n.leaf {
			i, found := search(n.keys, key)
			if found {
				n.drop(n.spans[i])
				n.spans[i] = span{off: nilOff} // store may repack: skip the old bytes
				n.spans[i] = n.store(value, s.maxKeys())
				n.tidy(s.maxKeys())
				return false
			}
			n.keys = slices.Insert(n.keys, i, key)
			n.spans = slices.Insert(n.spans, i, span{off: nilOff})
			n.spans[i] = n.store(value, s.maxKeys())
			return true
		}
		i := childIndex(n, key)
		if len(n.children[i].keys) >= s.maxKeys() {
			s.splitChild(n, i)
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
}

// splitChild splits the i-th child of parent, which must be full.
func (s *Store) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	var sep keyspace.Key
	right := &node{leaf: child.leaf}
	if child.leaf {
		// B+-tree leaf split: the separator is copied up, not moved. The
		// right half gets arrays for a full leaf and moves its values into
		// a buffer of its own. The left keeps its arrays and its buffer, in
		// which the right half's bytes are now dead until a put finds the
		// buffer full or a write leaves more than half of it dead: a leaf
		// that an ascending load leaves behind is never copied at all.
		maxKeys := s.maxKeys()
		right.keys = append(make([]keyspace.Key, 0, maxKeys), child.keys[mid:]...)
		right.spans = append(make([]span, 0, maxKeys), child.spans[mid:]...)
		child.keys = child.keys[:mid]
		child.spans = child.spans[:mid]
		rlive := liveBytes(right.spans)
		right.repack(child.vals, arenaSize(rlive, len(right.keys), maxKeys))
		child.dead += rlive
		right.next = child.next
		child.next = right
		sep = right.keys[0]
		s.leaves++
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

// search returns the index of the first of the sorted keys not below key,
// and whether it is key itself: slices.BinarySearch's contract, as a plain
// loop, which measured up to twice as fast on a node's few dozen keys.
func search(keys []keyspace.Key, key keyspace.Key) (int, bool) {
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if keys[h] < key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(keys) && keys[i] == key
}

// childIndex returns the slot of internal node n whose subtree holds key.
func childIndex(n *node, key keyspace.Key) int {
	i, found := search(n.keys, key)
	if found {
		i++
	}
	return i
}

// seek descends once from the root to the leaf that holds key, or would.
func (s *Store) seek(key keyspace.Key) *node {
	n := s.root
	for !n.leaf {
		n = n.children[childIndex(n, key)]
	}
	return n
}

// Get returns the value stored under key and whether it exists. The value
// is a read-only view of the leaf's buffer; it keeps its bytes whatever the
// store does later, and an append to it copies. (It
// descends in place: through a call to seek, a lookup in one peer's share
// measured up to twice as slow.)
func (s *Store) Get(key keyspace.Key) ([]byte, bool) {
	n := s.root
	for !n.leaf {
		n = n.children[childIndex(n, key)]
	}
	if i, found := search(n.keys, key); found {
		return value(n.vals, n.spans[i]), true
	}
	return nil, false
}

// Contains reports whether key is present.
func (s *Store) Contains(key keyspace.Key) bool {
	_, ok := s.Get(key)
	return ok
}

// Delete removes key from the store and reports whether it was present.
//
// Deletion uses lazy structural maintenance: the key is removed from its
// leaf, and the tree is rebuilt when it becomes grossly underfull. This keeps
// the implementation compact while preserving O(log n) amortised behaviour
// for the workloads the overlay generates (deletes are far rarer than
// lookups). The sparsity check reads the tracked leaf count, so a delete
// that does not rebuild costs one descent.
func (s *Store) Delete(key keyspace.Key) bool {
	n := s.seek(key)
	i, found := search(n.keys, key)
	if !found {
		return false
	}
	n.drop(n.spans[i])
	n.keys = slices.Delete(n.keys, i, i+1)
	n.spans = slices.Delete(n.spans, i, i+1)
	n.tidy(s.maxKeys())
	s.size--
	// Rebuild if the tree has become sparse: more than 4 leaves on average
	// emptier than a quarter full.
	if s.size > 0 && s.leaves > 4 && s.size < s.leaves*(s.degree/2) {
		s.rebuild()
	} else if s.size == 0 {
		s.Clear()
	}
	return true
}

// rebuild recreates the tree by bulk-loading all current items.
func (s *Store) rebuild() {
	fresh := NewWithDegree(s.degree)
	fresh.Absorb(s.Items())
	*s = *fresh
}

// Min returns the smallest key in the store.
func (s *Store) Min() (keyspace.Key, bool) {
	for n := s.seek(math.MinInt64); n != nil; n = n.next {
		if len(n.keys) > 0 {
			return n.keys[0], true
		}
	}
	return 0, false
}

// Max returns the largest key in the store.
func (s *Store) Max() (keyspace.Key, bool) {
	if n := s.seek(math.MaxInt64); len(n.keys) > 0 {
		return n.keys[len(n.keys)-1], true
	}
	// Lazy deletion left the rightmost leaf empty: walk the leaves.
	var last keyspace.Key
	for n := s.seek(math.MinInt64); n != nil; n = n.next {
		if len(n.keys) > 0 {
			last = n.keys[len(n.keys)-1]
		}
	}
	return last, s.size > 0
}

// Ascend calls fn for every item in ascending key order until fn returns
// false.
func (s *Store) Ascend(fn func(Item) bool) {
	for n := s.seek(math.MinInt64); n != nil; n = n.next {
		for i, k := range n.keys {
			if !fn(Item{Key: k, Value: value(n.vals, n.spans[i])}) {
				return
			}
		}
	}
}

// Run is one leaf's stretch of a range scan: its keys, and the parallel
// values read through Value. It is the leaf's own state, valid only inside
// the AscendRuns callback that receives it; Keys must not be modified.
type Run struct {
	Keys []keyspace.Key
	leaf *node
	from int
}

// spans returns the spans of the run's values.
func (r *Run) spans() []span { return r.leaf.spans[r.from : r.from+len(r.Keys)] }

// Value returns the run's i-th value, a read-only view as Get returns.
func (r *Run) Value(i int) []byte { return value(r.leaf.vals, r.leaf.spans[r.from+i]) }

// Size returns the total length of the run's values.
func (r *Run) Size() int { return liveBytes(r.spans()) }

// AscendRuns is the one walk behind every range scan. It descends once to
// the leaf holding r.Lower and passes fn, leaf by leaf in ascending order,
// the run of items that fall inside r, until fn returns false. Leaves that
// lazy deletes emptied are skipped; only the first leaf is searched for
// r.Lower and only the last for r.Upper.
func (s *Store) AscendRuns(r keyspace.Range, fn func(Run) bool) {
	if r.IsEmpty() || s.size == 0 {
		return
	}
	n := s.seek(r.Lower)
	i, _ := search(n.keys, r.Lower)
	for ; n != nil; n, i = n.next, 0 {
		j := len(n.keys)
		if i >= j {
			continue
		}
		last := n.keys[j-1] >= r.Upper
		if last {
			j, _ = search(n.keys, r.Upper)
		}
		if i < j && !fn(Run{Keys: n.keys[i:j], leaf: n, from: i}) || last {
			return
		}
	}
}

// appendRun appends one leaf run to dst, which must have room for it.
func appendRun(dst []Item, run Run) []Item {
	base := len(dst)
	dst = dst[:base+len(run.Keys)]
	out, keys, vals := dst[base:], run.Keys, run.leaf.vals
	for i, sp := range run.spans()[:len(keys)] { // the reslice drops keys[i]'s bounds check
		out[i] = Item{Key: keys[i], Value: value(vals, sp)}
	}
	return dst
}

// AscendRange calls fn for every item with key in [r.Lower, r.Upper) in
// ascending order until fn returns false.
func (s *Store) AscendRange(r keyspace.Range, fn func(Item) bool) {
	s.AscendRuns(r, func(run Run) bool {
		for i, k := range run.Keys {
			if !fn(Item{Key: k, Value: run.Value(i)}) {
				return false
			}
		}
		return true
	})
}

// Scan returns all items with keys in r, in ascending order, in one
// allocation of exactly their number (nil when there are none).
func (s *Store) Scan(r keyspace.Range) []Item { return s.ScanAppend(nil, r) }

// ScanAppend appends all items with keys in r to dst and returns the
// extended slice, copying leaf run by leaf run. It makes room once, for
// CountRange's count: a nil dst gets exactly that, and any other grows with
// slices.Grow — amortised, so the serial range walk folding each peer's
// contribution into its travelling accumulator does not reallocate at
// every hop.
func (s *Store) ScanAppend(dst []Item, r keyspace.Range) []Item {
	switch n := s.CountRange(r); {
	case n == 0:
		return dst
	case dst == nil:
		dst = make([]Item, 0, n)
	default:
		dst = slices.Grow(dst, n)
	}
	s.AscendRuns(r, func(run Run) bool {
		dst = appendRun(dst, run)
		return true
	})
	return dst
}

// CountRange returns the number of items with keys in r: a sum of leaf
// run lengths, O(log n + leaves) and no per-item work.
func (s *Store) CountRange(r keyspace.Range) int {
	count := 0
	s.AscendRuns(r, func(run Run) bool {
		count += len(run.Keys)
		return true
	})
	return count
}

// Items returns every item in ascending key order.
func (s *Store) Items() []Item {
	out := make([]Item, 0, s.size)
	s.Ascend(func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// Keys returns every key in ascending order.
func (s *Store) Keys() []keyspace.Key {
	out := make([]keyspace.Key, 0, s.size)
	s.Ascend(func(it Item) bool {
		out = append(out, it.Key)
		return true
	})
	return out
}

// ExtractRange removes all items with keys in r from the store and returns
// them in ascending order. BATON uses this when a peer hands part of its
// content to another peer (child split, load-balancing boundary shift, or
// departure).
func (s *Store) ExtractRange(r keyspace.Range) []Item {
	moved := s.Scan(r)
	for _, it := range moved {
		s.Delete(it.Key)
	}
	return moved
}

// ExtractAll removes and returns every item in the store.
func (s *Store) ExtractAll() []Item {
	items := s.Items()
	s.Clear()
	return items
}

// Absorb inserts every item into the store (used when a peer takes over the
// content of another peer). Existing keys are overwritten.
func (s *Store) Absorb(items []Item) {
	for _, it := range items {
		s.Put(it.Key, it.Value)
	}
}

// Clear removes every item.
func (s *Store) Clear() {
	s.root = &node{leaf: true}
	s.size = 0
	s.leaves = 1
}

// KeyAtFraction returns the key located at the given fraction (0..1) of the
// store's items in key order. It is used by load balancing to find the
// boundary that splits the local content into a given proportion. The second
// return value is false when the store is empty.
func (s *Store) KeyAtFraction(frac float64) (keyspace.Key, bool) {
	if s.size == 0 {
		return 0, false
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	target := min(int(frac*float64(s.size)), s.size-1)
	for n := s.seek(math.MinInt64); n != nil; n = n.next {
		if target < len(n.keys) {
			return n.keys[target], true
		}
		target -= len(n.keys)
	}
	return 0, false
}

// checkInvariants verifies structural invariants of the B+-tree and panics
// with a descriptive message when one is violated. It is exported to tests
// through export_test.go.
func (s *Store) checkInvariants() error {
	if s.root == nil {
		return fmt.Errorf("store: nil root")
	}
	// Keys strictly ascending across the whole tree.
	var prev keyspace.Key
	first := true
	count := 0
	var err error
	s.Ascend(func(it Item) bool {
		if !first && it.Key <= prev {
			err = fmt.Errorf("store: keys out of order: %d after %d", it.Key, prev)
			return false
		}
		prev = it.Key
		first = false
		count++
		return true
	})
	if err != nil {
		return err
	}
	if count != s.size {
		return fmt.Errorf("store: size %d but iterated %d items", s.size, count)
	}
	leaves := 0
	for n := s.seek(math.MinInt64); n != nil; n = n.next {
		leaves++
	}
	if leaves != s.leaves {
		return fmt.Errorf("store: %d leaves tracked but %d chained", s.leaves, leaves)
	}
	return s.checkNode(s.root)
}

func (s *Store) checkNode(n *node) error {
	if n.leaf {
		return checkLeaf(n)
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("store: internal node has %d keys but %d children", len(n.keys), len(n.children))
	}
	for _, c := range n.children {
		if err := s.checkNode(c); err != nil {
			return err
		}
	}
	return nil
}

// checkLeaf checks a leaf's value buffer: one span per key, every span
// inside the buffer, no two overlapping, and the bytes no span covers
// counted dead.
func checkLeaf(n *node) error {
	if len(n.keys) != len(n.spans) {
		return fmt.Errorf("store: leaf has %d keys but %d spans", len(n.keys), len(n.spans))
	}
	var live []span
	for _, sp := range n.spans {
		if sp.off != nilOff {
			live = append(live, sp)
		}
	}
	if len(live) > 0 && n.vals == nil {
		return fmt.Errorf("store: leaf holds values but no buffer")
	}
	slices.SortFunc(live, func(a, b span) int { return int(a.off) - int(b.off) })
	end := 0
	for _, sp := range live {
		if sp.n > 0 && int(sp.off) < end || int(sp.off)+int(sp.n) > len(n.vals) {
			return fmt.Errorf("store: span %+v overlaps another or leaves the %d-byte buffer", sp, len(n.vals))
		}
		end = max(end, int(sp.off)+int(sp.n))
	}
	if dead := len(n.vals) - liveBytes(live); dead != n.dead {
		return fmt.Errorf("store: leaf counts %d dead bytes, has %d", n.dead, dead)
	}
	return nil
}
