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

// Method is called from the nested module.
func (ForNested) Method() {}

// Satisfies is named only by an interface the nested module declares.
func (ForNested) Satisfies() {}

// String is on the standard-library interface list.
func (ForNested) String() string { return "" }

// TestOnlyMethod is called from lib_test.go only.
func (ForNested) TestOnlyMethod() {}

// hidden is unexported, so its exported method is unreachable API.
type hidden struct{}

// Exempt is a method of an unexported type.
func (hidden) Exempt() {}

func Undocumented() {}
