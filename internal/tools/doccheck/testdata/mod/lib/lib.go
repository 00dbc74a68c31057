// Package lib is the checked package of the doccheck fixture.
package lib

// Used is called from cmd/app.
func Used() int { return helper() }

// Internal is used by another declaration of this package only.
const Internal = 1

func helper() int { return Internal }

// Recursive calls only itself and its own test.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Shadowed is named by cmd/app only through a local variable that hides
// the import.
var Shadowed = 2

// TestOnly is referenced from lib_test.go only.
func TestOnly() {}

// ForNested is referenced from the nested module only.
type ForNested struct{}

// Method is a method, which the use check skips.
func (ForNested) Method() {}

func Undocumented() {}
