package main

import (
	"fmt"

	"fixture/a"
)

func main() {
	var rep a.Report
	rep.Phases.Execute = 1
	fmt.Println(a.Right{}.Hidden(), rep, a.Right{}.Unset)
}
