package main

import "fixture/lib"

func main() {
	_ = lib.ForNested{}
}
