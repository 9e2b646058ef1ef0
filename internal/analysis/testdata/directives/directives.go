// Package directives is the fixture for the directive-parsing unit
// tests: every //lintx:ignore form, well-formed, malformed, unused and
// unknown, in one file with stable line numbers.
package directives

// malformed ignore: check list but no reason (line 7).
//lintx:ignore maprange
var a = 1

// well-formed preceding-line ignore (line 11) covering line 12.
//lintx:ignore maprange the traversal sorts its output
var b = 2

var c = 3 //lintx:ignore goroleak,maprange same-line, two checks

//lintx:ignore all blanket suppression with a reason
var d = 4

//lintx:ignore maprange stale: nothing on line 20 is a finding
var e = 5

//lintx:ignore nosuchcheck names no analyzer (line 22)
var f = 6

// NotADirective exists so the file has a second clean declaration.
func NotADirective() {}
