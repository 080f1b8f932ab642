package server

// Chaos mode: deterministic fault schedules armed on the server's shared
// guard.Injector. The same injector instance is threaded through every
// pooled session via core.WithInjector, so one spec can fault the
// request path ("server.request"), any rewrite-side external, or any
// ADT function — with the determinism contract of
// internal/guard/faultinject.go: whether a fault fires depends only on
// the per-name call count, never on time or scheduling.
//
// Spec grammar (comma-separated faults):
//
//	name:mode[:on=N][:every=N][:stall=DURATION]
//
//	member:error:every=7        — every 7th MEMBER call returns ErrInjected
//	server.request:stall:every=5:stall=20ms
//	                            — every 5th request waits 20ms (ctx-aware)
//	server.request:panic:on=100 — the 100th request panics (isolation test)
//	member:error                — every MEMBER call errors
//
// Modes: error, panic, stall. Names are case-insensitive except
// "server.request", the per-request hook hit after admission and before
// the session runs. A name is not empty, and a fault gives each option
// at most once.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"lera/internal/guard"
)

// RequestHook is the injector name hit once per admitted request.
const RequestHook = "server.request"

// ChaosFault is one parsed fault: the injector name and the armed fault.
type ChaosFault struct {
	Name  string
	Fault guard.Fault
}

// ParseChaos parses a chaos spec. An empty spec is valid and yields nil.
func ParseChaos(spec string) ([]ChaosFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []ChaosFault
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("server: chaos fault %q: want name:mode[:opts]", item)
		}
		cf := ChaosFault{Name: normalizeChaosName(parts[0])}
		if cf.Name == "" {
			return nil, fmt.Errorf("server: chaos fault %q: empty name", item)
		}
		switch strings.ToLower(parts[1]) {
		case "error":
			cf.Fault.Mode = guard.FaultError
		case "panic":
			cf.Fault.Mode = guard.FaultPanic
		case "stall":
			cf.Fault.Mode = guard.FaultStall
		default:
			return nil, fmt.Errorf("server: chaos fault %q: unknown mode %q (error|panic|stall)", item, parts[1])
		}
		seen := map[string]bool{}
		for _, opt := range parts[2:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("server: chaos fault %q: malformed option %q", item, opt)
			}
			k = strings.ToLower(k)
			if seen[k] {
				return nil, fmt.Errorf("server: chaos fault %q: option %q given twice", item, k)
			}
			seen[k] = true
			switch k {
			case "on":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("server: chaos fault %q: on=%q is not a positive integer", item, v)
				}
				cf.Fault.OnCall = n
			case "every":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("server: chaos fault %q: every=%q is not a positive integer", item, v)
				}
				cf.Fault.Every = n
			case "stall":
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("server: chaos fault %q: stall=%q: %v", item, v, err)
				}
				cf.Fault.Stall = d
			default:
				return nil, fmt.Errorf("server: chaos fault %q: unknown option %q", item, k)
			}
		}
		if cf.Fault.Mode == guard.FaultStall && cf.Fault.Stall <= 0 {
			return nil, fmt.Errorf("server: chaos fault %q: stall mode needs stall=DURATION", item)
		}
		out = append(out, cf)
	}
	return out, nil
}

// normalizeChaosName maps a spec name onto the injector namespace:
// external names are uppercase (as the pipeline hits them), the request
// hook keeps its canonical lowercase form.
func normalizeChaosName(name string) string {
	name = strings.TrimSpace(name)
	if strings.EqualFold(name, RequestHook) {
		return RequestHook
	}
	return strings.ToUpper(name)
}

// Arm sets every fault on the injector.
func Arm(inj *guard.Injector, faults []ChaosFault) {
	for _, cf := range faults {
		inj.Set(cf.Name, cf.Fault)
	}
}
