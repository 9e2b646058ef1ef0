// Package boiler re-implements Boilerpipe-style boilerplate detection [15]:
// classify each text block of a web page as content or boilerplate using
// shallow text features only (no rendering, no DOM geometry). The paper
// uses this to recover "net text" from crawled pages before classification
// and IE (§2.1), and reports precision ~90-98% with recall 72-82% — recall
// losses concentrated in tables and lists (§4.1), a behaviour this
// implementation intentionally shares because the features are the same.
package boiler

import (
	"strings"

	"webtextie/internal/htmlkit"
)

// Classifier assigns content/boilerplate labels to text blocks. The default
// decision function is a port of Boilerpipe's "NumWordsRulesClassifier"
// decision-tree: thresholds on the current, previous, and next block's word
// count and link density.
type Classifier struct {
	// MinWords is the minimum words for a block to be considered content
	// without contextual support.
	MinWords int
	// MaxLinkDensity is the link-density threshold above which a block is
	// always boilerplate.
	MaxLinkDensity float64
	// KeepTables controls whether table/list blocks can be content. The
	// stock rules drop most of them (the recall loss the paper laments);
	// setting this to true is the "fix the tables/lists problem" ablation.
	KeepTables bool
}

// Default returns the stock rule set, matching Boilerpipe's published
// thresholds.
func Default() *Classifier {
	return &Classifier{MinWords: 12, MaxLinkDensity: 0.33}
}

// Label is the per-block classification result.
type Label struct {
	Block   htmlkit.Block
	Content bool
}

// Classify labels each block. The decision for block i looks at blocks
// i-1 and i+1 (density-contextual rules), as in the original classifier.
// The labels slice is the only allocation.
func (c *Classifier) Classify(blocks []htmlkit.Block) []Label {
	labels := make([]Label, len(blocks))
	for i, b := range blocks {
		labels[i] = Label{Block: b, Content: c.isContent(blocks, i)}
	}
	return labels
}

func (c *Classifier) isContent(blocks []htmlkit.Block, i int) bool {
	b := &blocks[i]
	if b.Words == 0 {
		return false
	}
	if b.LinkDensity() > c.MaxLinkDensity {
		return false
	}
	if !c.KeepTables && (b.Tag == "td" || b.Tag == "th" || b.Tag == "tr" ||
		b.Tag == "table" || b.Tag == "li" || b.Tag == "dt" || b.Tag == "dd") {
		// Tables and lists "often contain valuable facts [but] are not
		// recognized properly in many cases" (§4.1) — the stock rules treat
		// them as boilerplate unless they are long prose.
		if b.Words < 3*c.MinWords {
			return false
		}
	}
	prevDense := i > 0 && blocks[i-1].LinkDensity() > c.MaxLinkDensity
	nextWords := 0
	if i+1 < len(blocks) {
		nextWords = blocks[i+1].Words
	}
	prevWords := 0
	if i > 0 {
		prevWords = blocks[i-1].Words
	}
	switch {
	case b.Words >= c.MinWords:
		return true
	case b.Words >= c.MinWords/2 && (prevWords >= c.MinWords || nextWords >= c.MinWords) && !prevDense:
		// Short block sandwiched between long content blocks: keep.
		return true
	default:
		return false
	}
}

// Result is the outcome of net-text extraction for one page.
type Result struct {
	// NetText is the recovered main text, blocks joined with newlines.
	NetText string
	// ContentBlocks / TotalBlocks summarize the classification.
	ContentBlocks, TotalBlocks int
	// RepairStats records the markup repairs performed along the way.
	RepairStats htmlkit.RepairStats
}

// Extract runs the full pipeline on raw HTML: tokenize → repair → block
// segmentation → block classification → net text. The first three are
// htmlkit.Blocks' one streaming pass, the last two FromBlocks.
func (c *Classifier) Extract(html string) Result {
	return c.FromBlocks(htmlkit.Blocks(html))
}

// FromBlocks classifies a page's blocks and joins the content blocks'
// texts into a net text sized up front; stats are the repairs that
// segmenting the page took.
func (c *Classifier) FromBlocks(blocks []htmlkit.Block, stats htmlkit.RepairStats) Result {
	size, content := 0, 0
	for i := range blocks {
		if c.isContent(blocks, i) {
			size += 1 + len(blocks[i].Text)
			content++
		}
	}
	var net strings.Builder
	net.Grow(size)
	for i := range blocks {
		if c.isContent(blocks, i) {
			if net.Len() > 0 {
				net.WriteByte('\n')
			}
			net.WriteString(blocks[i].Text)
		}
	}
	return Result{
		NetText:       net.String(),
		ContentBlocks: content,
		TotalBlocks:   len(blocks),
		RepairStats:   stats,
	}
}

// WordOverlapPR scores extraction quality the way the paper does: "quality
// measures are computed based on the amount of net text being correctly
// identified" (§4.1). It compares bags of words: precision is the fraction
// of extracted words present in the gold net text, recall the fraction of
// gold words recovered.
func WordOverlapPR(extracted, gold string) (precision, recall float64) {
	ew := wordBag(extracted)
	gw := wordBag(gold)
	if len(ew) == 0 && len(gw) == 0 {
		return 1, 1
	}
	var hit, extTotal, goldTotal int
	for w, n := range ew {
		extTotal += n
		if g := gw[w]; g > 0 {
			if n < g {
				hit += n
			} else {
				hit += g
			}
		}
	}
	for _, n := range gw {
		goldTotal += n
	}
	if extTotal > 0 {
		precision = float64(hit) / float64(extTotal)
	}
	if goldTotal > 0 {
		recall = float64(hit) / float64(goldTotal)
	}
	return precision, recall
}

func wordBag(s string) map[string]int {
	bag := map[string]int{}
	for _, w := range strings.Fields(s) {
		bag[strings.ToLower(strings.Trim(w, ".,;:()[]\"'"))]++
	}
	delete(bag, "")
	return bag
}
