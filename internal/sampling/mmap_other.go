//go:build !unix

package sampling

import "errors"

// mapBlock falls back to the Go heap where there is no mmap.
func mapBlock(n int) ([]byte, error) {
	if n < 0 {
		return nil, errors.New("negative size")
	}
	return make([]byte, n), nil
}

// unmap leaves the block to the garbage collector.
func unmap([]byte) {}
