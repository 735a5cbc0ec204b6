// Command cslint runs the repository's analyzer suite (see
// internal/analysis/suite) over packages loaded from source:
//
//	cslint [-sarif] [packages]   # default ./...
//
// Exit codes follow the repo CLI convention: 0 clean, 1 findings,
// 2 usage errors.
package main

import (
	"os"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(driver.Main(os.Args, os.Stdout, os.Stderr, suite.All))
}
