// Command app is the fixture module's one caller of internal/fix.
package main

import (
	"fmt"

	"fixture/internal/fix"
)

func main() { fmt.Println(fix.Run(), fix.Summary(), fix.Units()) }
