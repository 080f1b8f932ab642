package rulecheck

// HasErrors reports whether any diagnostic is SevError.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Filter returns the diagnostics with the given code.
func Filter(ds []Diagnostic, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}
