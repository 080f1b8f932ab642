// Package a holds the exports the scan must judge. A match by name would
// take Right.Hidden's caller for Left.Hidden's, and a scan of functions
// and written fields alone would not look at types, constants, variables
// or reads, so it would pass every one of the package's test-only
// exports: Left, Left.Hidden, TestOnly, Limit, Default, Right.Unset and
// Right.Stored.
package a

import "time"

// Left is named only by its methods' receivers.
type Left struct{}

func (Left) Hidden() int { return 1 }

type Right struct {
	Unset  int
	Tagged int `json:"tagged"`
	Stored int // written by a composite literal and ++, never read
}

func (Right) Hidden() int { return 2 }

// Report is written only through its sub-field Phases.Execute.
type Report struct {
	Phases struct {
		Execute time.Duration
	}
}

// Outer's embedded Inner is read only by the promoted selector o.Depth.
type Outer struct {
	Inner
}

type Inner struct {
	Depth int
}

// TestOnly, Limit and Default are used only by a_test.go.
type TestOnly struct{}

const Limit = 3

var Default = time.Second

// Wire is a json shape: the encoder reads its embedded Outer.
type Wire struct {
	Outer
	Name string `json:"name"`
}
