package a

import "testing"

func TestOnlyTestsUseThese(t *testing.T) {
	var x TestOnly
	_ = x
	if Limit != 3 || Default <= 0 {
		t.Fatal("fixture constants changed")
	}
}
