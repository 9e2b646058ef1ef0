package mimetype

import "strings"

// refSniff is the predecessor of Sniff, kept verbatim as FuzzDetect's
// oracle: it copies the window to a string and lower-cases it.
func refSniff(content []byte) Type {
	head := content
	if len(head) > 512 {
		head = head[:512]
	}
	s := string(head)
	for _, m := range magic {
		if strings.HasPrefix(s, m.prefix) {
			return m.t
		}
	}
	trimmed := strings.TrimLeft(s, " \t\r\n")
	lower := strings.ToLower(trimmed)
	if strings.HasPrefix(lower, "<!doctype html") || strings.HasPrefix(lower, "<html") ||
		strings.Contains(lower, "<body") || strings.Contains(lower, "<head") {
		return HTML
	}
	// Binary heuristic: control bytes (outside tab/LF/CR) imply binary.
	binary := 0
	for i := 0; i < len(head); i++ {
		c := head[i]
		if c < 9 || (c > 13 && c < 32) || c == 127 {
			binary++
		}
	}
	if len(head) == 0 {
		return Unknown
	}
	if float64(binary)/float64(len(head)) > 0.02 {
		return Unknown
	}
	if strings.Contains(lower, "<") && strings.Contains(lower, ">") {
		return HTML
	}
	return Plain
}
