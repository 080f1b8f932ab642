//go:build unix

package engine

import (
	"syscall"
	"testing"
)

// limitFileSize lowers the process's file-size limit to n bytes and
// returns the function that puts it back. A write that would grow a file
// past the limit fails with EFBIG; the Go runtime ignores the SIGXFSZ.
func limitFileSize(t *testing.T, n uint64) (restore func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = n
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	return func() { _ = syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old) }
}
