//go:build unix

package sampling

import "syscall"

// mapBlock returns n zeroed bytes backed by an anonymous private mapping:
// the OS commits a page only when it is first touched, so a folded block
// nobody writes costs address space, not memory.
func mapBlock(n int) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil
	}
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

// unmap returns a block from mapBlock to the OS; no slice of it may be
// touched afterwards.
func unmap(b []byte) {
	if len(b) > 0 {
		if err := syscall.Munmap(b); err != nil {
			panic("sampling: munmap: " + err.Error())
		}
	}
}
