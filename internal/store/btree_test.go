package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"baton/internal/keyspace"
)

func TestPutGet(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatalf("new store not empty")
	}
	if !s.Put(10, []byte("a")) {
		t.Fatalf("first Put should insert")
	}
	if s.Put(10, []byte("b")) {
		t.Fatalf("second Put of same key should replace, not insert")
	}
	v, ok := s.Get(10)
	if !ok || string(v) != "b" {
		t.Fatalf("Get(10) = %q, %v", v, ok)
	}
	if _, ok := s.Get(11); ok {
		t.Fatalf("Get of missing key should report absence")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestPutManyAscendOrder(t *testing.T) {
	s := NewWithDegree(3)
	const n = 1000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		s.Put(keyspace.Key(k), []byte(fmt.Sprint(k)))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	keys := s.Keys()
	if len(keys) != n {
		t.Fatalf("Keys returned %d keys", len(keys))
	}
	for i, k := range keys {
		if k != keyspace.Key(i) {
			t.Fatalf("keys[%d] = %d, want %d", i, k, i)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	s := NewWithDegree(2)
	for i := 0; i < 200; i++ {
		s.Put(keyspace.Key(i), nil)
	}
	for i := 0; i < 200; i += 2 {
		if !s.Delete(keyspace.Key(i)) {
			t.Fatalf("Delete(%d) should succeed", i)
		}
	}
	if s.Delete(0) {
		t.Fatalf("double delete should fail")
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	for i := 0; i < 200; i++ {
		_, ok := s.Get(keyspace.Key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete the rest.
	for i := 1; i < 200; i += 2 {
		if !s.Delete(keyspace.Key(i)) {
			t.Fatalf("Delete(%d) should succeed", i)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("store should be empty, Len = %d", s.Len())
	}
	if _, ok := s.Min(); ok {
		t.Fatalf("Min on empty store should report absence")
	}
}

func TestMinMax(t *testing.T) {
	s := New()
	if _, ok := s.Min(); ok {
		t.Fatal("Min of empty store")
	}
	if _, ok := s.Max(); ok {
		t.Fatal("Max of empty store")
	}
	for _, k := range []keyspace.Key{50, 10, 90, 30, 70} {
		s.Put(k, nil)
	}
	if mn, _ := s.Min(); mn != 10 {
		t.Fatalf("Min = %d", mn)
	}
	if mx, _ := s.Max(); mx != 90 {
		t.Fatalf("Max = %d", mx)
	}
	s.Delete(90)
	if mx, _ := s.Max(); mx != 70 {
		t.Fatalf("Max after delete = %d", mx)
	}
}

func TestScanAndCountRange(t *testing.T) {
	s := NewWithDegree(3)
	for i := 0; i < 100; i++ {
		s.Put(keyspace.Key(i*10), nil)
	}
	items := s.Scan(keyspace.NewRange(95, 250))
	wantKeys := []keyspace.Key{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240}
	if len(items) != len(wantKeys) {
		t.Fatalf("Scan returned %d items, want %d", len(items), len(wantKeys))
	}
	for i, it := range items {
		if it.Key != wantKeys[i] {
			t.Fatalf("item %d key = %d, want %d", i, it.Key, wantKeys[i])
		}
	}
	if got := s.CountRange(keyspace.NewRange(95, 250)); got != len(wantKeys) {
		t.Fatalf("CountRange = %d, want %d", got, len(wantKeys))
	}
	if got := s.CountRange(keyspace.NewRange(2000, 3000)); got != 0 {
		t.Fatalf("CountRange outside domain = %d", got)
	}
	if got := len(s.Scan(keyspace.NewRange(5, 5))); got != 0 {
		t.Fatalf("Scan of empty range = %d items", got)
	}
}

func TestAscendRangeEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Put(keyspace.Key(i), nil)
	}
	visited := 0
	s.AscendRange(keyspace.NewRange(0, 50), func(Item) bool {
		visited++
		return visited < 7
	})
	if visited != 7 {
		t.Fatalf("early stop visited %d items, want 7", visited)
	}
	visited = 0
	s.Ascend(func(Item) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("Ascend early stop visited %d", visited)
	}
}

// TestScanAppend pins the accumulator form: items land behind the existing
// prefix in key order with at most one reallocation.
func TestScanAppend(t *testing.T) {
	s := NewWithDegree(3)
	for i := 0; i < 50; i++ {
		s.Put(keyspace.Key(i), []byte{byte(i)})
	}
	acc := []Item{{Key: -1}}
	acc = s.ScanAppend(acc, keyspace.NewRange(10, 15))
	wantKeys := []keyspace.Key{-1, 10, 11, 12, 13, 14}
	if len(acc) != len(wantKeys) {
		t.Fatalf("ScanAppend result has %d items, want %d", len(acc), len(wantKeys))
	}
	for i, it := range acc {
		if it.Key != wantKeys[i] {
			t.Fatalf("item %d key = %d, want %d", i, it.Key, wantKeys[i])
		}
	}
	if got := s.ScanAppend(nil, keyspace.NewRange(900, 1000)); got != nil {
		t.Fatalf("ScanAppend of empty range = %v, want nil", got)
	}
}

func TestExtractRange(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Put(keyspace.Key(i), []byte{byte(i)})
	}
	moved := s.ExtractRange(keyspace.NewRange(50, 100))
	if len(moved) != 50 {
		t.Fatalf("ExtractRange moved %d items, want 50", len(moved))
	}
	if s.Len() != 50 {
		t.Fatalf("remaining Len = %d, want 50", s.Len())
	}
	for _, it := range moved {
		if it.Key < 50 {
			t.Fatalf("moved item %d should not have been extracted", it.Key)
		}
		if s.Contains(it.Key) {
			t.Fatalf("extracted item %d still present", it.Key)
		}
	}
	other := New()
	other.Absorb(moved)
	if other.Len() != 50 {
		t.Fatalf("Absorb gave Len %d", other.Len())
	}
	if v, ok := other.Get(77); !ok || v[0] != 77 {
		t.Fatalf("absorbed value lost")
	}
}

func TestExtractAllAndClear(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		s.Put(keyspace.Key(i), nil)
	}
	items := s.ExtractAll()
	if len(items) != 20 || s.Len() != 0 {
		t.Fatalf("ExtractAll: %d items, %d remaining", len(items), s.Len())
	}
	s.Put(1, nil)
	s.Clear()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatalf("Clear did not empty the store")
	}
}

func TestKeyAtFraction(t *testing.T) {
	s := New()
	if _, ok := s.KeyAtFraction(0.5); ok {
		t.Fatal("KeyAtFraction on empty store")
	}
	for i := 0; i < 100; i++ {
		s.Put(keyspace.Key(i), nil)
	}
	if k, _ := s.KeyAtFraction(0); k != 0 {
		t.Fatalf("KeyAtFraction(0) = %d", k)
	}
	if k, _ := s.KeyAtFraction(0.5); k != 50 {
		t.Fatalf("KeyAtFraction(0.5) = %d", k)
	}
	if k, _ := s.KeyAtFraction(1); k != 99 {
		t.Fatalf("KeyAtFraction(1) = %d", k)
	}
	if k, _ := s.KeyAtFraction(-3); k != 0 {
		t.Fatalf("KeyAtFraction(-3) = %d", k)
	}
	if k, _ := s.KeyAtFraction(7); k != 99 {
		t.Fatalf("KeyAtFraction(7) = %d", k)
	}
}

func TestNewWithDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWithDegree(1) should panic")
		}
	}()
	NewWithDegree(1)
}

// Property-based test: the store behaves exactly like a map[Key][]byte under
// a random sequence of Put/Delete/Get operations, and iteration order is
// always sorted.
func TestStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := NewWithDegree(2 + rng.Intn(6))
		model := map[keyspace.Key][]byte{}
		for op := 0; op < 2000; op++ {
			k := keyspace.Key(rng.Intn(300))
			switch rng.Intn(3) {
			case 0, 1:
				v := []byte{byte(op)}
				s.Put(k, v)
				model[k] = v
			case 2:
				gotDeleted := s.Delete(k)
				_, existed := model[k]
				if gotDeleted != existed {
					t.Fatalf("trial %d op %d: Delete(%d) = %v, model says %v", trial, op, k, gotDeleted, existed)
				}
				delete(model, k)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("trial %d: Len %d vs model %d", trial, s.Len(), len(model))
		}
		for k, v := range model {
			got, ok := s.Get(k)
			if !ok || string(got) != string(v) {
				t.Fatalf("trial %d: Get(%d) mismatch", trial, k)
			}
		}
		keys := s.Keys()
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("trial %d: keys not strictly ascending", trial)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// checkScans checks every scan form over r against the model: Scan and
// CountRange return exactly the model's items in r in key order, ScanAppend lands them behind a prefix whether dst has spare
// capacity (then it must not reallocate) or not, and AscendRange stops where
// its visitor says.
func checkScans(t testing.TB, s *Store, model map[keyspace.Key][]byte, r keyspace.Range) {
	t.Helper()
	var want []Item
	for _, k := range slices.Sorted(maps.Keys(model)) {
		if r.Contains(k) {
			want = append(want, Item{Key: k, Value: model[k]})
		}
	}
	same := func(form string, got []Item) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s(%v): %d items, want %d", form, r, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || !sameValue(got[i].Value, want[i].Value) {
				t.Fatalf("%s(%v): item %d = %d %v, want %d %v", form, r, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
	same("Scan", s.Scan(r))
	if got := s.CountRange(r); got != len(want) {
		t.Fatalf("CountRange(%v) = %d, want %d", r, got, len(want))
	}
	for _, spare := range []int{0, len(want)} {
		dst := make([]Item, 1, 1+spare)
		dst[0] = Item{Key: -1}
		got := s.ScanAppend(dst, r)
		if got[0].Key != -1 {
			t.Fatalf("ScanAppend(%v) lost its prefix", r)
		}
		if spare > 0 && &got[0] != &dst[0] {
			t.Fatalf("ScanAppend(%v) reallocated a dst with room for %d items", r, spare)
		}
		same("ScanAppend", got[1:])
	}
	stop := len(want) / 2
	var seen []Item
	s.AscendRange(r, func(it Item) bool {
		seen = append(seen, it)
		return len(seen) < stop
	})
	if len(want) > 0 {
		want = want[:max(stop, 1)]
	}
	same("AscendRange with an early stop", seen)
}

// sameValue reports whether two values hold the same bytes and are both nil
// or both not: the store keeps a nil value apart from an empty one.
func sameValue(a, b []byte) bool { return bytes.Equal(a, b) && (a == nil) == (b == nil) }

// checkOrderStats checks Min, Max and KeyAtFraction against the model.
func checkOrderStats(t testing.TB, s *Store, model map[keyspace.Key][]byte) {
	t.Helper()
	keys := slices.Sorted(maps.Keys(model))
	mn, okMin := s.Min()
	mx, okMax := s.Max()
	if len(keys) == 0 {
		if okMin || okMax {
			t.Fatal("Min or Max found a key in an empty store")
		}
		return
	}
	if !okMin || !okMax || mn != keys[0] || mx != keys[len(keys)-1] {
		t.Fatalf("Min, Max = %d, %d; want %d, %d", mn, mx, keys[0], keys[len(keys)-1])
	}
	for _, f := range []float64{0, 0.3, 0.5, 0.99, 1} {
		want := keys[min(int(f*float64(len(keys))), len(keys)-1)]
		if got, ok := s.KeyAtFraction(f); !ok || got != want {
			t.Fatalf("KeyAtFraction(%v) = %d, want %d", f, got, want)
		}
	}
}

// Property: after puts interleaved with deletes, every scan form over any
// range returns exactly the model's items in that range.
func TestScanMatchesModelProperty(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewWithDegree(2 + rng.Intn(6))
		model := map[keyspace.Key][]byte{}
		for i := 0; i < 800; i++ {
			k := keyspace.Key(rng.Intn(1000))
			if rng.Intn(3) == 0 {
				s.Delete(k)
				delete(model, k)
				continue
			}
			s.Put(k, []byte{byte(i)})
			model[k] = []byte{byte(i)}
		}
		lo, hi := keyspace.Key(loRaw%1000), keyspace.Key(hiRaw%1000)
		checkScans(t, s, model, keyspace.NewRange(min(lo, hi), max(lo, hi)))
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestScanAcrossEmptyLeaves deletes whole key blocks and every seventh key
// elsewhere, leaving empty and underfull leaves that lazy deletion keeps
// (the tree is not sparse enough to rebuild), then checks every scan form
// over ranges whose bounds fall on leaf edges, next to them, inside the
// emptied blocks and across them.
func TestScanAcrossEmptyLeaves(t *testing.T) {
	for _, degree := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("degree=%d", degree), func(t *testing.T) {
			s := NewWithDegree(degree)
			model := map[keyspace.Key][]byte{}
			// Random insertion order: ascending inserts leave one key per
			// degree-2 leaf, so sparse that the first deletes rebuild the tree.
			for _, i := range rand.New(rand.NewSource(int64(degree))).Perm(600) {
				k := keyspace.Key(i)
				s.Put(k, []byte(fmt.Sprint(k)))
				model[k] = []byte(fmt.Sprint(k))
			}
			leaves := s.LeafKeys()
			top := leaves[len(leaves)-1][0] // empty the rightmost leaf too
			for k := range model {
				if k >= 100 && k < 160 || k >= 400 && k < 430 || k >= top || k%7 == 0 {
					s.Delete(k)
					delete(model, k)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var edges []keyspace.Key
			leaves = s.LeafKeys()
			for _, keys := range leaves {
				if len(keys) > 0 {
					edges = append(edges, keys[0], keys[len(keys)-1]+1)
				}
			}
			if last := leaves[len(leaves)-1]; len(last) != 0 {
				t.Fatalf("the rightmost of %d leaves kept %d keys: the deletes rebuilt the tree", len(leaves), len(last))
			}
			checkOrderStats(t, s, model)
			bounds := []keyspace.Key{-5, 0, 99, 100, 130, 160, 161, 415, 430, 599, 600, 700}
			for _, e := range edges {
				bounds = append(bounds, e-1, e, e+1)
			}
			for _, b := range bounds {
				for _, w := range []keyspace.Key{0, 1, 25, 200, 800} {
					checkScans(t, s, model, keyspace.NewRange(b, b+w))
					checkScans(t, s, model, keyspace.NewRange(b-w, b))
				}
			}
		})
	}
}

// fuzzValue derives a put's value from its op and key bytes: nil, empty,
// or up to 40 bytes that differ by position, op and key.
func fuzzValue(op, key byte) []byte {
	n := int(op>>1)%42 - 1
	if n < 0 {
		return nil
	}
	v := make([]byte, n)
	for j := range v {
		v[j] = op + key + byte(j)
	}
	return v
}

// heldValue is a value read from a store and a copy of its bytes at the
// time of the read.
type heldValue struct {
	key       keyspace.Key
	view, was []byte
}

func hold(key keyspace.Key, v []byte) heldValue {
	return heldValue{key, v, bytes.Clone(v)}
}

// checkHeld fails if any value read earlier no longer holds its bytes.
func checkHeld(t testing.TB, held []heldValue, after string) {
	t.Helper()
	for _, h := range held {
		if !sameValue(h.view, h.was) {
			t.Fatalf("after %s: a value read for key %d changed from %q to %q", after, h.key, h.was, h.view)
		}
	}
}

// FuzzStoreMatchesModel decodes a degree, a range and a sequence of puts
// and deletes over one-byte keys, with values of 0–40 bytes (nil and empty
// apart) derived from the op bytes, applies them to a store and a map, and
// checks the tree's invariants and every scan form over the range. Every
// value read along the way is kept and must still hold its bytes at the
// end, whatever the later writes did to its leaf.
func FuzzStoreMatchesModel(f *testing.F) {
	seq := func(degree, lo, hi byte, ops ...byte) []byte { return append([]byte{degree, lo, hi}, ops...) }
	var ascending, emptied, compacted, empties []byte
	for k := byte(0); k < 200; k++ {
		ascending = append(ascending, 0, k)
		emptied = append(emptied, 1, k)
	}
	for k := byte(40); k < 120; k++ {
		emptied = append(emptied, 2, k)
	}
	// Fill one leaf with 40-byte values, then overwrite one of its keys with
	// 40-byte, then short, values until the leaf moves them to a new buffer.
	for k := byte(10); k < 13; k++ {
		compacted = append(compacted, 82, k)
	}
	for i := byte(0); i < 24; i++ {
		compacted = append(compacted, 82-6*(i%2), 11, 4, 11)
	}
	// Nil and empty values over the same keys, overwriting each other.
	for k := byte(0); k < 12; k++ {
		empties = append(empties, 0, k, 3, k, 3, k+1, 1, k+2)
	}
	f.Add(seq(0, 10, 150, ascending...))
	f.Add(seq(2, 30, 130, emptied...))
	f.Add(seq(5, 0, 255, 0, 7, 0, 3, 2, 7, 0, 9, 2, 3))
	f.Add(seq(0, 5, 5, 0, 5))
	f.Add(seq(0, 0, 20, compacted...))
	f.Add(seq(1, 0, 20, empties...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		s := NewWithDegree(2 + int(data[0]%6))
		model := map[keyspace.Key][]byte{}
		lo, hi := keyspace.Key(data[1]), keyspace.Key(data[2])
		r := keyspace.NewRange(min(lo, hi), max(lo, hi))
		var held []heldValue
		for i := 3; i+1 < len(data); i += 2 {
			op, k := data[i], keyspace.Key(data[i+1])
			if op%3 == 2 {
				_, had := model[k]
				if s.Delete(k) != had {
					t.Fatalf("op %d: Delete(%d) disagrees with the model (present: %v)", i/2, k, had)
				}
				delete(model, k)
			} else {
				v := fuzzValue(op, data[i+1])
				s.Put(k, v)
				model[k] = bytes.Clone(v)
				clear(v) // the store keeps its own copy
			}
			if v, ok := s.Get(k); ok {
				held = append(held, hold(k, v))
			}
			if i%32 == 3 {
				for _, it := range s.Scan(r) {
					held = append(held, hold(it.Key, it.Value))
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		checkHeld(t, held, "the sequence")
		checkOrderStats(t, s, model)
		checkScans(t, s, model, r)
	})
}

// TestValuesStableAcrossWrites pins the value contract: a value read from
// the store by Get or a scan keeps its bytes through every later write to
// its leaf (an overwrite of its key, its delete, a split, a compaction,
// Delete's rebuild, ExtractRange), an append to it does not reach the next
// value, and Put keeps a copy, not the caller's slice.
func TestValuesStableAcrossWrites(t *testing.T) {
	s := NewWithDegree(4) // leaves of 3 to 7 keys
	val := func(k keyspace.Key, ver int) []byte { return []byte(fmt.Sprintf("value %d version %d", k, ver)) }
	for k := keyspace.Key(0); k < 400; k += 10 {
		s.Put(k, val(k, 0))
	}
	all := keyspace.NewRange(math.MinInt64, math.MaxInt64)
	var held []heldValue
	readAll := func() {
		for _, it := range s.Scan(all) {
			held = append(held, hold(it.Key, it.Value))
			v, _ := s.Get(it.Key)
			held = append(held, hold(it.Key, v))
		}
	}
	step := func(what string, write func()) {
		t.Helper()
		readAll()
		write()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		checkHeld(t, held, what)
	}
	buffer := func(k keyspace.Key) *byte { return unsafe.SliceData(s.LeafBuffer(k)) }

	step("an overwrite", func() { s.Put(50, val(50, 1)) })
	step("a delete", func() { s.Delete(60) })

	leaves := len(s.LeafKeys())
	for k := keyspace.Key(201); len(s.LeafKeys()) == leaves; k++ {
		step(fmt.Sprintf("an insert of %d", k), func() { s.Put(k, val(k, 0)) })
	}

	// Empty values append nothing, so only the dead-bytes rule moves the
	// leaf's values to a new buffer.
	before, compacted := buffer(300), false
	for _, k := range s.LeafKeys()[len(s.LeafKeys())/2] {
		step(fmt.Sprintf("emptying %d", k), func() { s.Put(k, []byte{}) })
		if compacted = buffer(k) != before; compacted {
			break
		}
	}
	if !compacted {
		t.Fatal("emptying every value of a leaf did not compact it")
	}

	moved := s.ExtractRange(keyspace.NewRange(100, 200))
	for _, it := range moved {
		held = append(held, hold(it.Key, it.Value))
	}
	step("refilling an extracted range", func() {
		for k := keyspace.Key(100); k < 200; k += 3 {
			s.Put(k, val(k, 2))
		}
	})

	rebuilt := false
	for _, k := range s.Keys() {
		leaves := len(s.LeafKeys())
		step(fmt.Sprintf("deleting %d", k), func() { s.Delete(k) })
		if rebuilt = len(s.LeafKeys()) < leaves && s.Len() > 0; rebuilt {
			break
		}
	}
	if !rebuilt {
		t.Fatal("deleting keys one by one never rebuilt the tree")
	}

	// Two values stored one after the other in one leaf's buffer: growing
	// the first must copy it, not overwrite the second.
	s.Put(1000, []byte("first"))
	s.Put(1001, []byte("second"))
	first, _ := s.Get(1000)
	_ = append(first, "XXXXXX"...)
	if v, _ := s.Get(1001); string(v) != "second" {
		t.Fatalf("an append to the value of 1000 reached the value of 1001: %q", v)
	}

	caller := []byte("caller's bytes")
	s.Put(2000, caller)
	copy(caller, "CHANGED")
	if v, _ := s.Get(2000); string(v) != "caller's bytes" {
		t.Fatalf("Put kept the caller's slice: the stored value reads %q", v)
	}
	checkHeld(t, held, "the appends")
}

// TestStoreHeapObjectsPerItem pins the leaf layout's cost to the garbage
// collector: a store of 100 000 items whose values arrived as fresh 16-byte
// slices holds a few heap objects per leaf, not one per value.
func TestStoreHeapObjectsPerItem(t *testing.T) {
	const n = 100_000
	keys := rand.New(rand.NewSource(1)).Perm(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	for _, k := range keys {
		s.Put(keyspace.Key(k), benchValue(keyspace.Key(k)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	objects := float64(after.HeapObjects-before.HeapObjects) / n
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.2f live heap objects and %.1f bytes per item", objects, bytes)
	if objects > 0.35 {
		t.Fatalf("%.2f live heap objects per item, want at most 0.35", objects)
	}
}

// TestScanAllocs pins the scans' allocations: counting allocates nothing,
// appending into a dst with room allocates nothing, and Scan allocates its
// answer once.
func TestScanAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 10_000; i++ {
		s.Put(keyspace.Key(i), nil)
	}
	r := keyspace.NewRange(1000, 5000)
	dst := make([]Item, 0, 4000)
	for _, tc := range []struct {
		form string
		fn   func()
		want float64
	}{
		{"CountRange", func() { s.CountRange(r) }, 0},
		{"ScanAppend into enough capacity", func() { dst = s.ScanAppend(dst[:0], r) }, 0},
		{"Scan", func() { s.Scan(r) }, 1},
	} {
		if got := testing.AllocsPerRun(50, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.form, got, tc.want)
		}
	}
}

// benchValue is a fresh 16-byte value for k, the size and form of the
// benchmark workloads' values: the key, then a version.
func benchValue(k keyspace.Key) []byte {
	v := make([]byte, 16)
	binary.BigEndian.PutUint64(v, uint64(k))
	binary.BigEndian.PutUint64(v[8:], 1)
	return v
}

// benchStore is a store of n items with keys 0..n-1, put in random order.
func benchStore(n int) *Store {
	s := New()
	for _, k := range rand.New(rand.NewSource(1)).Perm(n) {
		s.Put(keyspace.Key(k), benchValue(keyspace.Key(k)))
	}
	return s
}

// scanBenchStore is a 100 000-item store and a range of 1 000 of them.
func scanBenchStore() (*Store, keyspace.Range) {
	return benchStore(100_000), keyspace.NewRange(40_000, 41_000)
}

func BenchmarkStoreScanAppend(b *testing.B) {
	s, r := scanBenchStore()
	var dst []Item
	b.ReportAllocs()
	for b.Loop() {
		dst = s.ScanAppend(dst[:0], r)
	}
}

func BenchmarkStoreCountRange(b *testing.B) {
	s, r := scanBenchStore()
	b.ReportAllocs()
	for b.Loop() {
		s.CountRange(r)
	}
}

// BenchmarkStorePut puts fresh values, as a peer puts the values it
// decodes from requests.
func BenchmarkStorePut(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := keyspace.Key(rng.Int63n(1 << 40))
		s.Put(k, benchValue(k))
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := benchStore(100_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get(keyspace.Key(rng.Intn(100000)))
	}
}

// BenchmarkStoreAbsorb loads 100 000 shuffled items into an empty store,
// the path every item takes when a cluster is set up or a replica synced.
func BenchmarkStoreAbsorb(b *testing.B) {
	items := make([]Item, 100_000)
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(items)) {
		items[i] = Item{Key: keyspace.Key(k), Value: benchValue(keyspace.Key(k))}
	}
	b.ReportAllocs()
	for b.Loop() {
		New().Absorb(items)
	}
}

// BenchmarkStoreGC times a full garbage collection with a 100 000-item
// store live: the marking a store costs every GC cycle of a peer process.
func BenchmarkStoreGC(b *testing.B) {
	s := benchStore(100_000)
	for b.Loop() {
		runtime.GC()
	}
	runtime.KeepAlive(s)
}
