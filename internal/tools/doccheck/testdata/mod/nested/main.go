package main

import "fixture/lib"

type satisfier interface{ Satisfies() }

func main() {
	var s satisfier = lib.ForNested{}
	_ = s
	lib.ForNested{}.Method()
}
