package htmlkit

// RepairStats records what the repair pass had to fix; the crawl analysis
// reports these to quantify how broken web markup is (§5: 13% of sites in
// [19] could not be transcoded at all).
type RepairStats struct {
	// UnclosedTags counts start tags with no matching end tag.
	UnclosedTags int
	// StrayEndTags counts end tags with no matching open element.
	StrayEndTags int
	// MisnestedTags counts end tags closing across other open elements.
	MisnestedTags int
}

// Total returns the number of repairs performed.
func (s RepairStats) Total() int { return s.UnclosedTags + s.StrayEndTags + s.MisnestedTags }

// Repair normalizes a token stream into a well-formed one: every start tag
// is eventually closed, stray end tags are dropped, and misnested end tags
// implicitly close the intervening elements (the browser algorithm).
func Repair(tokens []Token) ([]Token, RepairStats) {
	// Every token but an end tag passes through, and every element pushed
	// is popped by exactly one end tag: the output's size is known before
	// the stack runs.
	n := 0
	for i := range tokens {
		if t := &tokens[i]; t.Type != EndTag {
			n++
			if t.Type == StartTag && opens(t) {
				n++
			}
		}
	}
	var out []Token
	if n > 0 {
		out = make([]Token, 0, n)
	}
	emit := func(t Token) { out = append(out, t) }
	s := getScratch()
	for _, t := range tokens {
		s.r.feed(t, emit)
	}
	s.r.close(emit)
	stats := s.r.stats
	scratchPool.Put(s)
	return out, stats
}

// repairer is the repair pass fed one token at a time: the stack of open
// elements, and what fixing the stream has cost so far. It hands each
// token of the repaired stream to emit.
type repairer struct {
	stack []string
	stats RepairStats
}

func (r *repairer) feed(t Token, emit func(Token)) {
	switch t.Type {
	case StartTag:
		emit(t)
		if opens(&t) {
			r.stack = append(r.stack, t.Name)
		}
	case EndTag:
		// Find the matching open element.
		idx := len(r.stack) - 1
		for idx >= 0 && r.stack[idx] != t.Name {
			idx--
		}
		if idx < 0 {
			r.stats.StrayEndTags++
			return // drop stray end tag
		}
		// Implicitly close everything above the match.
		for i := len(r.stack) - 1; i > idx; i-- {
			emit(Token{Type: EndTag, Name: r.stack[i]})
			r.stats.MisnestedTags++
		}
		emit(Token{Type: EndTag, Name: t.Name})
		r.stack = r.stack[:idx]
	default:
		emit(t)
	}
}

// close ends the stream: everything still open is closed.
func (r *repairer) close(emit func(Token)) {
	for i := len(r.stack) - 1; i >= 0; i-- {
		emit(Token{Type: EndTag, Name: r.stack[i]})
		r.stats.UnclosedTags++
	}
	r.stack = r.stack[:0]
}
