package main

import "fixture/lib"

func main() {
	lib.Used()
	lib.Undocumented()
	{
		lib := struct{ Shadowed int }{}
		_ = lib.Shadowed
	}
}
