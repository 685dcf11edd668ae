// Command tool is the fixture's only non-test caller of internal/lib.
package main

import (
	"fmt"

	"example.com/testonly/internal/lib"
)

// sizer is satisfied by *lib.Counter; main calls Size only through it.
type sizer interface{ Size() int }

func main() {
	c := lib.NewCounter()
	c.Add(2)
	var s sizer = c
	fmt.Println(c, s.Size(), lib.Limit)
}
