//go:build !unix

package engine

import "testing"

// limitFileSize needs a file-size rlimit, which only unix systems have.
func limitFileSize(t *testing.T, n uint64) (restore func()) {
	t.Skip("no file-size limit to make a spill write fail")
	return nil
}
