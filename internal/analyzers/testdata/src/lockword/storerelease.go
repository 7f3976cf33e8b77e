package lockword

import "thinlock/internal/arch"

// slot publishes its fields only through arch.StoreRelease and
// arch.StoreRelease64, which count as atomic accesses.
type slot struct {
	depth uint64
	word  uint32
	spare uint32
}

func (s *slot) publish(d uint64, w uint32) {
	arch.StoreRelease64(&s.depth, d)
	arch.StoreRelease(&s.word, w)
}

func (s *slot) peekDepth() uint64 {
	return s.depth // want `plain access to depth`
}

func (s *slot) peekWord() uint32 {
	return s.word // want `plain access to word`
}

// spare is never stored through arch: plain access is fine.
func (s *slot) peekSpare() uint32 { return s.spare }
