// Package a holds the exports the scan must judge. A match by name would
// take Right.Hidden's caller for Left.Hidden's and would not look at
// fields, so it would pass both of the package's test-only exports: Left.Hidden
// and Right.Unset.
package a

import "time"

type Left struct{}

func (Left) Hidden() int { return 1 }

type Right struct {
	Unset  int
	Tagged int `json:"tagged"`
}

func (Right) Hidden() int { return 2 }

// Report is written only through its sub-field Phases.Execute.
type Report struct {
	Phases struct {
		Execute time.Duration
	}
}
