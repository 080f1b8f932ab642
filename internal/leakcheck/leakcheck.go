// Package leakcheck is the goroutine-leak gate of the packages that start
// goroutines — worker pools, servers, admission queues: a test binary fails
// when a goroutine of this module that its tests started is still running
// after them.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests of m and exits with their status — or with failure,
// printing their stacks, when goroutines whose stacks name a function of
// this module ("lera/") and that were not running before the tests are
// still running after them. Goroutines get about two seconds to finish
// winding down. A package's TestMain calls it.
func Main(m *testing.M) {
	before := map[string]bool{}
	for id := range moduleGoroutines() {
		before[id] = true
	}
	code := m.Run()
	if code == 0 {
		var leaked []string
		for try := 0; try < 40; try++ {
			leaked = leaked[:0]
			for id, stack := range moduleGoroutines() {
				if !before[id] {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) of this module outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// moduleGoroutines returns the stacks of the running goroutines, by
// goroutine id, whose stacks name a function of this module, except the
// caller's own.
func moduleGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for i, g := range bytes.Split(buf, []byte("\n\n")) {
		// "goroutine 7 [chan receive]:" heads each stack, the caller's first.
		header, _, _ := bytes.Cut(g, []byte("\n"))
		fields := strings.Fields(string(header))
		if i == 0 || len(fields) < 2 || !bytes.Contains(g, []byte("lera/")) {
			continue
		}
		out[fields[1]] = string(g)
	}
	return out
}
