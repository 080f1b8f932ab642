// Package provenance resolves build identity — git commit and Go
// toolchain version — for the lera_build_info metric leraserver exports.
// It prefers the vcs stamp the Go linker embeds in module builds
// (debug.ReadBuildInfo, available even in a deployed binary far from the
// checkout) and falls back to asking git directly, which covers `go run`
// from the repo where no stamp is embedded.
package provenance

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

var (
	once   sync.Once
	commit string
)

// Commit returns the git revision the binary was built from, with a
// "-dirty" suffix when the working tree was modified, or "unknown" when
// neither the embedded build info nor a git checkout is available.
// The resolution is cached: the exec fallback runs at most once.
func Commit() string {
	once.Do(func() { commit = resolve() })
	return commit
}

func resolve() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// GoVersion returns the running toolchain version (e.g. "go1.24.1").
func GoVersion() string {
	return runtime.Version()
}
