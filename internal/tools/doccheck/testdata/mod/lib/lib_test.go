package lib

import "testing"

func TestFixture(t *testing.T) {
	TestOnly()
	Recursive(1)
	ForNested{}.TestOnlyMethod()
}
