package cache

import "repro/internal/dataset"

// Sample IDs are dense and non-negative (dataset.SampleID indexes
// [0, Len)), so policy state can live in flat slices indexed by id instead
// of maps and pointer-linked nodes. Negative values are free to act as
// sentinels.
const (
	listEnd   int32 = -1 // no neighbour in this direction
	notInList int32 = -2 // id is not in the list at all
)

// grown returns s extended to cover index idx, filling new slots with
// fill. Growth at least doubles, so per-id amortized cost is O(1).
func grown[T any](s []T, idx int, fill T) []T {
	old := len(s)
	if idx < old {
		return s
	}
	need := idx + 1
	if need < 2*old {
		need = 2 * old
	}
	//lint:allow hotpath amortized doubling growth: O(1) per id, and flat after the warm-up pass over the dataset
	ns := make([]T, need)
	copy(ns, s)
	for i := old; i < need; i++ {
		ns[i] = fill
	}
	return ns
}

// denseList is a doubly-linked recency list over dense sample IDs, backed
// by flat prev/next slices instead of container/list nodes: push, remove
// and move-to-front touch a couple of int32 slots and never allocate
// (beyond amortized growth to the largest id seen). Every list-based
// policy (LRU, FIFO, NoPFS's fallback order, the segmented page cache)
// performs one of these operations per cache access, which made
// container/list's per-entry node allocation the single largest source of
// per-iteration garbage in the simulator.
type denseList struct {
	prev, next []int32 // prev[id] == notInList => id absent from this list
	head, tail int32
	n          int
}

func newDenseList() *denseList { return &denseList{head: listEnd, tail: listEnd} }

func (l *denseList) len() int { return l.n }

// reserve sizes the list for ids in [0, n) at once.
func (l *denseList) reserve(n int) {
	l.prev = grown(l.prev, n-1, notInList)
	l.next = grown(l.next, n-1, notInList)
}

//lint:hotpath one list op per simulated cache access; allocation here was the top source of per-iteration garbage
func (l *denseList) contains(id dataset.SampleID) bool {
	return uint(id) < uint(len(l.prev)) && l.prev[id] != notInList
}

// pushFront inserts id at the most-recent end. id must not be in the list.
//
//lint:hotpath one list op per simulated cache access; allocation here was the top source of per-iteration garbage
func (l *denseList) pushFront(id dataset.SampleID) {
	if int(id) >= len(l.prev) {
		l.prev = grown(l.prev, int(id), notInList)
		l.next = grown(l.next, int(id), notInList)
	}
	i := int32(id)
	l.prev[i] = listEnd
	l.next[i] = l.head
	if l.head != listEnd {
		l.prev[l.head] = i
	} else {
		l.tail = i
	}
	l.head = i
	l.n++
}

// remove unlinks id. id must be in the list.
//
//lint:hotpath one list op per simulated cache access; allocation here was the top source of per-iteration garbage
func (l *denseList) remove(id dataset.SampleID) {
	i := int32(id)
	p, nx := l.prev[i], l.next[i]
	if p != listEnd {
		l.next[p] = nx
	} else {
		l.head = nx
	}
	if nx != listEnd {
		l.prev[nx] = p
	} else {
		l.tail = p
	}
	l.prev[i] = notInList
	l.next[i] = notInList
	l.n--
}

// moveToFront promotes an id already in the list to the most-recent end.
//
//lint:hotpath one list op per simulated cache access; allocation here was the top source of per-iteration garbage
func (l *denseList) moveToFront(id dataset.SampleID) {
	if l.head == int32(id) {
		return
	}
	l.remove(id)
	l.pushFront(id)
}

// back returns the least-recent id, if any.
//
//lint:hotpath one list op per simulated cache access; allocation here was the top source of per-iteration garbage
func (l *denseList) back() (dataset.SampleID, bool) {
	if l.tail == listEnd {
		return NoSample, false
	}
	return dataset.SampleID(l.tail), true
}
