package main

import (
	"encoding/json"
	"fmt"

	"fixture/a"
)

func main() {
	var rep a.Report
	rep.Phases.Execute = 1
	r := a.Right{Stored: 1}
	r.Stored++
	o := a.Outer{Inner: a.Inner{Depth: 2}}
	wire, _ := json.Marshal(a.Wire{Outer: o})
	fmt.Println(a.Right{}.Hidden(), rep.Phases.Execute, a.Right{}.Unset, o.Depth, string(wire))
}
