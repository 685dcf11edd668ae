package trace

// pageShift and pageSize give Memory's allocation unit: 4 KiB pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// Memory is a sparse, paged, little-endian byte-addressable memory image:
// the µRISC core's memory, and the bytes behind the tag-only cache
// models, which read the lines crossing a cache boundary from it. Pages
// are 4 KiB, held in a PageTable and allocated on the first store into
// them: an image holds an 8 KiB directory, an 8 KiB leaf per 4 MiB
// region stored into and the pages stored into, so its memory grows with
// the pages touched. Bytes never stored read as zero, and reads never
// allocate. Addresses wrap at 2³². The zero value is ready to use.
type Memory struct {
	pages PageTable[*[pageSize]byte]
}

// writable returns the page holding addr, allocating it on first use.
func (m *Memory) writable(addr uint32) *[pageSize]byte {
	p := m.pages.Get(addr >> pageShift)
	if p == nil {
		p = new([pageSize]byte)
		m.pages.Set(addr>>pageShift, p)
	}
	return p
}

// Store writes the low width bytes of value little-endian at addr.
func (m *Memory) Store(addr uint32, width uint8, value uint32) {
	var p *[pageSize]byte
	for i := uint32(0); i < uint32(width); i++ {
		a := addr + i
		off := a & (pageSize - 1)
		if p == nil || off == 0 {
			p = m.writable(a)
		}
		p[off] = byte(value >> (8 * i))
	}
}

// Load returns the width bytes at addr, little-endian and zero-extended.
func (m *Memory) Load(addr uint32, width uint8) uint32 {
	var v uint32
	var p *[pageSize]byte
	for i := uint32(0); i < uint32(width); i++ {
		a := addr + i
		off := a & (pageSize - 1)
		if i == 0 || off == 0 {
			p = m.pages.Get(a >> pageShift)
		}
		if p != nil {
			v |= uint32(p[off]) << (8 * i)
		}
	}
	return v
}

// ReadLine copies the len(dst) bytes at addr into dst.
func (m *Memory) ReadLine(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(dst), pageSize-int(off))
		if p := m.pages.Get(addr >> pageShift); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// LoadBytes stores data byte by byte starting at addr.
func (m *Memory) LoadBytes(addr uint32, data []byte) {
	for i, b := range data {
		m.Store(addr+uint32(i), 1, uint32(b))
	}
}

// LoadWords stores 32-bit words consecutively starting at addr.
func (m *Memory) LoadWords(addr uint32, words []uint32) {
	for i, w := range words {
		m.Store(addr+uint32(i)*4, 4, w)
	}
}

// ReadWords returns the n consecutive words starting at addr.
func (m *Memory) ReadWords(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.Load(addr+uint32(i)*4, 4)
	}
	return out
}
