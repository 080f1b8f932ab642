package server

// Tenant configuration: per-tenant guard budgets. A tenant is a named
// class of clients — "free" and "paid" tiers, an internal dashboard, a
// batch pipeline — each with its own guard.Limits so one tenant's
// pathological query burns its own budget, not the server's. The special
// name "default" supplies the limits for requests that name no tenant or
// an unknown one (unknown tenants are served under default limits and
// reported in the response, so a typo degrades service predictably
// instead of failing closed).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
	"unicode"

	"lera/internal/guard"
)

// DefaultTenant is the tenant name used when a request names none.
const DefaultTenant = "default"

// TenantLimits is the JSON shape of one tenant's budget. Zero fields mean
// "unlimited", exactly like the corresponding guard.Limits fields;
// negative fields are rejected (Tenants.Validate).
type TenantLimits struct {
	// TimeoutMs is the per-phase wall-clock budget in milliseconds
	// (applied to rewrite and execution separately, like edsql
	// --timeout).
	TimeoutMs int `json:"timeoutMs"`
	// MaxSteps caps committed rule applications per query.
	MaxSteps int `json:"maxSteps"`
	// MaxTermSize caps the query term's node count during rewriting.
	MaxTermSize int `json:"maxTermSize"`
	// MaxRows caps rows materialized during execution.
	MaxRows int `json:"maxRows"`
	// MaxFixIterations caps each fixpoint instance's rounds.
	MaxFixIterations int `json:"maxFixIterations"`
	// MaxMemBytes is the per-operator memory grant for execution
	// (docs/GUARDRAILS.md): hash structures that would exceed it spill to
	// the server's spill directory, or fail with MEM_BUDGET when spilling
	// is disabled.
	MaxMemBytes int64 `json:"maxMemBytes"`
}

// Limits converts the JSON shape into a guard budget.
func (t TenantLimits) Limits() guard.Limits {
	return guard.Limits{
		Timeout:          time.Duration(t.TimeoutMs) * time.Millisecond,
		MaxSteps:         t.MaxSteps,
		MaxTermSize:      t.MaxTermSize,
		MaxRows:          t.MaxRows,
		MaxFixIterations: t.MaxFixIterations,
		MaxMemBytes:      t.MaxMemBytes,
	}
}

// Tenants maps tenant names to their limits.
type Tenants map[string]TenantLimits

// ParseTenants decodes a tenant-config JSON object:
//
//	{"default": {"timeoutMs": 2000, "maxRows": 100000},
//	 "free":    {"timeoutMs": 250,  "maxRows": 10000, "maxSteps": 500}}
//
// Only white space may follow the object: a second value would otherwise
// be dropped unread, limits and all. Nor may a tenant be named twice, or a
// field be given twice within one tenant (fields compared the way
// encoding/json matches them, case-insensitively): the last would win and
// the first, a negative limit Validate refuses perhaps, vanish unread.
func ParseTenants(r io.Reader) (Tenants, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("server: tenant config: %w", err)
	}
	var t Tenants
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("server: tenant config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("server: tenant config: data after the top-level object")
	}
	if err := repeatedKey(data); err != nil {
		return nil, fmt.Errorf("server: tenant config: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("server: tenant config: %w", err)
	}
	return t, nil
}

// repeatedKey reports the first tenant named twice in a config that
// decoded, or the first field given twice within one tenant. It walks the
// tokens of data, whose shape the decode has already checked: one object
// of tenants, each an object of numbers or null.
func repeatedKey(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil // null: no tenants
	}
	tenants := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		name := tok.(string)
		if tenants[name] {
			return fmt.Errorf("tenant %q given twice", name)
		}
		tenants[name] = true
		if tok, err = dec.Token(); err != nil {
			return err
		}
		if tok != json.Delim('{') {
			continue // null
		}
		fields := map[string]string{} // folded name -> name as given
		for dec.More() {
			if tok, err = dec.Token(); err != nil {
				return err
			}
			field := tok.(string)
			key := foldField(field)
			if first, ok := fields[key]; ok {
				return fmt.Errorf("tenant %q: field %q given twice (again as %q)", name, first, field)
			}
			fields[key] = field
			if _, err = dec.Token(); err != nil { // the value: a number or null
				return err
			}
		}
		if _, err = dec.Token(); err != nil { // '}'
			return err
		}
	}
	return nil
}

// foldField folds a JSON object key the way encoding/json folds one to
// match it to a struct field: each rune to upper(lower(r)).
func foldField(s string) string {
	return strings.Map(func(r rune) rune { return unicode.ToUpper(unicode.ToLower(r)) }, s)
}

// Validate rejects a tenant with a negative limit (a *guard.ConfigError
// naming the tenant and the field): "maxMemBytes": -1 would otherwise
// defeat the server-wide backstop and run that tenant ungoverned.
func (t Tenants) Validate() error {
	for _, name := range t.Names() {
		if err := t[name].Limits().Validate(name); err != nil {
			return err
		}
	}
	return nil
}

// LoadTenants reads a tenant-config file.
func LoadTenants(path string) (Tenants, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: tenant config: %w", err)
	}
	defer f.Close()
	return ParseTenants(f)
}

// Resolve returns the effective tenant name and limits for a requested
// tenant: the named tenant when configured, else the default entry, else
// zero limits (unlimited). The returned name is what the response echoes,
// so clients can see which budget actually applied.
func (t Tenants) Resolve(name string) (string, guard.Limits) {
	if name == "" {
		name = DefaultTenant
	}
	if tl, ok := t[name]; ok {
		return name, tl.Limits()
	}
	if tl, ok := t[DefaultTenant]; ok {
		return DefaultTenant, tl.Limits()
	}
	return DefaultTenant, guard.Limits{}
}

// Names returns the configured tenant names, sorted, for logs and docs.
func (t Tenants) Names() []string {
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
