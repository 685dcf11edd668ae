package trace

// The page table splits a 20-bit page number into a directory index (the
// high 10 bits) and a leaf index (the low 10 bits).
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirSize  = 1 << (20 - leafBits)
)

// PageTable maps the page numbers of a 32-bit address space (addr >> 12,
// so below 2²⁰; higher bits are ignored) to values of T. It is two-level:
// a directory of 1024 leaves, each a 1024-entry array allocated on the
// first Set into its range, so memory grows with the pages touched, not
// with their addresses, and every lookup is two indexed loads. Get of a
// page never set returns T's zero value and allocates nothing. The zero
// value is an empty table.
type PageTable[T any] struct {
	dir [dirSize]*[leafSize]T
}

// Get returns the value stored for page, or T's zero value.
func (pt *PageTable[T]) Get(page uint32) T {
	if leaf := pt.dir[page>>leafBits&(dirSize-1)]; leaf != nil {
		return leaf[page&(leafSize-1)]
	}
	var zero T
	return zero
}

// Set stores v for page, allocating its leaf on first use.
func (pt *PageTable[T]) Set(page uint32, v T) {
	leaf := &pt.dir[page>>leafBits&(dirSize-1)]
	if *leaf == nil {
		*leaf = new([leafSize]T)
	}
	(*leaf)[page&(leafSize-1)] = v
}
