package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"strings"
	"testing"
	"time"

	"lera/internal/guard"
)

// TestLoadTenantsExample pins the shipped example config
// (testdata/tenants.json, referenced from docs/SERVER.md).
func TestLoadTenantsExample(t *testing.T) {
	ten, err := LoadTenants("../../testdata/tenants.json")
	if err != nil {
		t.Fatal(err)
	}
	name, lim := ten.Resolve("free")
	if name != "free" || lim.Timeout != 250*time.Millisecond || lim.MaxRows != 10000 || lim.MaxSteps != 500 {
		t.Fatalf("free resolved to %q %+v", name, lim)
	}
	if name, lim = ten.Resolve("unknown"); name != DefaultTenant || lim.Timeout != 2*time.Second {
		t.Fatalf("unknown resolved to %q %+v", name, lim)
	}
	if got := ten.Names(); len(got) != 4 || got[0] != "batch" {
		t.Fatalf("Names() = %v", got)
	}
}

// TestNegativeLimitsRejected: every limit's zero already means
// "unlimited", and enforcement tests "> 0", so a negative value would
// silently switch a guardrail off — "maxMemBytes": -1 also defeats the
// server-wide backstop. Tenant files and server.New must refuse them with
// a typed error naming the tenant and the field.
func TestNegativeLimitsRejected(t *testing.T) {
	for _, c := range []struct{ json, field string }{
		{`{"timeoutMs": -1}`, "Timeout"},
		{`{"maxSteps": -1}`, "MaxSteps"},
		{`{"maxTermSize": -1}`, "MaxTermSize"},
		{`{"maxRows": -1}`, "MaxRows"},
		{`{"maxFixIterations": -1}`, "MaxFixIterations"},
		{`{"maxMemBytes": -1}`, "MaxMemBytes"},
	} {
		_, err := ParseTenants(strings.NewReader(`{"default": {}, "free": ` + c.json + `}`))
		var ce *guard.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: ParseTenants error = %v, want a *guard.ConfigError", c.json, err)
			continue
		}
		if ce.Tenant != "free" || ce.Field != c.field || ce.Value >= 0 {
			t.Errorf("%s: error blames %q/%q = %d", c.json, ce.Tenant, ce.Field, ce.Value)
		}
	}
	if _, err := ParseTenants(strings.NewReader(`{"free": {"maxRows": 0, "maxMemBytes": 1}}`)); err != nil {
		t.Errorf("zero and positive limits rejected: %v", err)
	}

	for _, c := range []struct {
		cfg    Config
		tenant string
		field  string
	}{
		{Config{Tenants: Tenants{"mem": {MaxMemBytes: -1}}}, "mem", "MaxMemBytes"},
		{Config{MaxMemBytes: -1}, "", "MaxMemBytes"},
		{Config{Parallelism: -1}, "", "Parallelism"},
	} {
		srv, err := New(c.cfg)
		var ce *guard.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("New(%s=-1): error = %v, want a *guard.ConfigError", c.field, err)
			if srv != nil {
				srv.Drain(context.Background())
			}
			continue
		}
		if ce.Tenant != c.tenant || ce.Field != c.field {
			t.Errorf("New(%s=-1): error blames %q/%q", c.field, ce.Tenant, ce.Field)
		}
	}
}

// TestParseTenantsTrailingData: the config is one JSON object. A second
// value after it was once dropped unread — tenant "b" and its negative
// limit, which Validate would refuse, vanished without an error.
func TestParseTenantsTrailingData(t *testing.T) {
	for _, in := range []string{
		`{"a":{"maxRows":5}} {"b":{"maxRows":-1}}`,
		`{"a":{}} garbage`,
		`{"a":{}} }`,
		`{"a":{}} null`,
	} {
		ten, err := ParseTenants(strings.NewReader(in))
		if err == nil || ten != nil {
			t.Errorf("ParseTenants(%s) = %v, %v; want a nil result and an error", in, ten, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), "server: tenant config: ") {
			t.Errorf("ParseTenants(%s): error %q lacks the package prefix", in, err)
		}
	}
	if ten, err := ParseTenants(strings.NewReader("{\"a\":{\"maxRows\":5}} \n\t")); err != nil || ten["a"].MaxRows != 5 {
		t.Errorf("trailing white space: %v, %v", ten, err)
	}
}

// TestParseTenantsRepeatedKey: a tenant named twice, or a field given
// twice within one tenant — compared as encoding/json matches fields, so
// "maxRows" and "MAXROWS" are one field — once parsed with the last value
// winning, and a negative limit Validate would refuse dropped unread.
func TestParseTenantsRepeatedKey(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"a":{"maxRows":-1},"a":{"maxRows":2}}`, `tenant "a" given twice`},
		{`{"a": {"maxRows": -1}, "a": {"maxRows": 2}}`, `tenant "a" given twice`},
		{`{"a":{"maxRows":-1,"MAXROWS":2}}`, `tenant "a": field "maxRows" given twice (again as "MAXROWS")`},
		{`{"a":{},"b":{"timeoutMs":1,"maxSteps":2,"TimeoutMS":3}}`, `tenant "b": field "timeoutMs" given twice`},
		{`{"a":null,"a":{}}`, `tenant "a" given twice`},
	} {
		ten, err := ParseTenants(strings.NewReader(c.in))
		if err == nil || ten != nil {
			t.Errorf("ParseTenants(%s) = %v, %v; want a nil result and an error", c.in, ten, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), "server: tenant config: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseTenants(%s): error %q, want the package prefix and %q", c.in, err, c.want)
		}
	}
	// Distinct tenants may differ only in case (names are keys, not
	// fields), and distinct fields of one tenant are all kept.
	ten, err := ParseTenants(strings.NewReader(`{"a":{"maxRows":1},"A":{"MAXROWS":2,"maxSteps":3},"n":null}`))
	if err != nil || ten["a"].MaxRows != 1 || ten["A"].MaxRows != 2 || ten["A"].MaxSteps != 3 || len(ten) != 3 {
		t.Errorf("distinct keys: %v, %v", ten, err)
	}
}

// FuzzParseTenants: whatever the bytes, ParseTenants does not panic, an
// error comes with a nil result, and a success passes Validate and
// re-encodes to JSON that parses back to the same tenants. Seeds in
// testdata/fuzz/FuzzParseTenants.
func FuzzParseTenants(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ten, err := ParseTenants(bytes.NewReader(data))
		if err != nil {
			if ten != nil {
				t.Fatalf("ParseTenants(%q) = %v with error %v", data, ten, err)
			}
			if !strings.HasPrefix(err.Error(), "server: tenant config: ") {
				t.Fatalf("ParseTenants(%q): error %q lacks the package prefix", data, err)
			}
			return
		}
		if err := ten.Validate(); err != nil {
			t.Fatalf("ParseTenants(%q) accepted tenants Validate refuses: %v", data, err)
		}
		enc, err := json.Marshal(ten)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseTenants(bytes.NewReader(enc))
		if err != nil || !maps.Equal(again, ten) || (again == nil) != (ten == nil) {
			t.Fatalf("ParseTenants(%q) = %v, re-encoded as %s parses to %v, %v", data, ten, enc, again, err)
		}
	})
}
