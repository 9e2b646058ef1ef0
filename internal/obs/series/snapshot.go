package series

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a frozen Recorder: retention config plus every series
// sorted by name. It is the unit that rides checkpoints, merges into
// fleet results, and renders the exports.
type Snapshot struct {
	Config Config        `json:"config"`
	Series []*SeriesData `json:"series,omitempty"`
}

// SeriesData is one metric's frozen history: the ring oldest-first, and
// Total, the samples ever observed including those the ring evicted.
type SeriesData struct {
	Name   string  `json:"name"`
	Total  int64   `json:"total"`
	Points []Point `json:"points,omitempty"`
}

// Get returns the named series, or nil when absent.
func (s *Snapshot) Get(name string) *SeriesData {
	if s == nil {
		return nil
	}
	i := sort.Search(len(s.Series), func(i int) bool { return s.Series[i].Name >= name })
	if i < len(s.Series) && s.Series[i].Name == name {
		return s.Series[i]
	}
	return nil
}

// Windowed queries. The package-level forms work over any point window
// (the doctor's time-aware rules slice their own early/late windows);
// the SeriesData methods apply them to the full retained ring.

// Delta returns last minus first value of the window (0 with fewer than
// two points).
func Delta(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	return pts[len(pts)-1].V - pts[0].V
}

// Rate returns the window's average change per second of virtual time
// (0 with fewer than two points or a non-positive time span).
func Rate(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	dt := pts[len(pts)-1].AtMs - pts[0].AtMs
	if dt <= 0 {
		return 0
	}
	return Delta(pts) * 1000 / float64(dt)
}

// Slope returns the least-squares trend of the window in value units per
// second of virtual time (0 with fewer than two points or zero time
// variance).
func Slope(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	// Center timestamps on the window start to keep the sums small.
	t0 := pts[0].AtMs
	var sumT, sumV, sumTT, sumTV float64
	for _, p := range pts {
		t := float64(p.AtMs - t0)
		sumT += t
		sumV += p.V
		sumTT += t * t
		sumTV += t * p.V
	}
	n := float64(len(pts))
	den := n*sumTT - sumT*sumT
	if den == 0 {
		return 0
	}
	return (n*sumTV - sumT*sumV) / den * 1000
}

// Delta applies Delta to the retained window.
func (sd *SeriesData) Delta() float64 { return Delta(sd.Points) }

// Rate applies Rate to the retained window.
func (sd *SeriesData) Rate() float64 { return Rate(sd.Points) }

// Slope applies Slope to the retained window.
func (sd *SeriesData) Slope() float64 { return Slope(sd.Points) }

// Last returns the newest retained point.
func (sd *SeriesData) Last() (Point, bool) {
	if len(sd.Points) == 0 {
		return Point{}, false
	}
	return sd.Points[len(sd.Points)-1], true
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSV renders the snapshot — the -series-out file and the /timeseries
// body — as a deterministic table, one row per retained point, sorted by
// series name then time:
//
//	series,at_ms,value
func (s *Snapshot) CSV() string {
	var b strings.Builder
	b.WriteString("series,at_ms,value\n")
	if s == nil {
		return b.String()
	}
	for _, sd := range s.Series {
		for _, p := range sd.Points {
			fmt.Fprintf(&b, "%s,%d,%s\n", sd.Name, p.AtMs, fmtFloat(p.V))
		}
	}
	return b.String()
}

// Text renders a one-line summary per series — retained/total sample
// counts, last value, window delta/rate/slope, and a sparkline of the
// retained window up to 32 glyphs wide:
//
//	crawler.fetch.ok n=12 total=12 last=118 delta=108 rate=3.2/s slope=0.4/s ▁▂▃▅▆█
func (s *Snapshot) Text() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, sd := range s.Series {
		last, _ := sd.Last()
		fmt.Fprintf(&b, "%s n=%d total=%d last=%s delta=%s rate=%s/s slope=%s/s %s\n",
			sd.Name, len(sd.Points), sd.Total, fmtFloat(last.V),
			fmtFloat(sd.Delta()), fmtFloat(sd.Rate()), fmtFloat(sd.Slope()),
			Sparkline(sd.Points, 32))
	}
	return b.String()
}

// sparkGlyphs are the eight block-element levels, lowest to highest.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the window as width block glyphs, bucket-averaging
// when the window is longer than width. A flat window renders at the
// mid level; an empty one renders empty.
func Sparkline(pts []Point, width int) string {
	if len(pts) == 0 || width <= 0 {
		return ""
	}
	if width > len(pts) {
		width = len(pts)
	}
	// Average the points into width buckets (last bucket may be short).
	vals := make([]float64, width)
	for i := 0; i < width; i++ {
		lo, hi := i*len(pts)/width, (i+1)*len(pts)/width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, p := range pts[lo:hi] {
			sum += p.V
		}
		vals[i] = sum / float64(hi-lo)
	}
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		level := len(sparkGlyphs) / 2
		if max > min {
			level = int((v - min) / (max - min) * float64(len(sparkGlyphs)-1))
			if level >= len(sparkGlyphs) {
				level = len(sparkGlyphs) - 1
			}
		}
		b.WriteRune(sparkGlyphs[level])
	}
	return b.String()
}
