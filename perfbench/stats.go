package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileOfMedians is the q-quantile over groups of each group's median.
// Latency depends on the circuit's size, so a quantile pooled over circuits
// sits on the cliff between two circuits' values, where a little noise moves
// it far; a quantile of the circuits' medians does not jump.
func quantileOfMedians(groups map[string][]float64, q float64) float64 {
	meds := make([]float64, 0, len(groups))
	for _, m := range groupMedians(groups) {
		meds = append(meds, m)
	}
	return quantile(meds, q)
}

func groupMedians(groups map[string][]float64) map[string]float64 {
	meds := make(map[string]float64, len(groups))
	for k, g := range groups {
		meds[k] = median(g)
	}
	return meds
}

func sampleCount(groups map[string][]float64) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// memSnapshot is the part of runtime.MemStats the benchmark reports.
type memSnapshot struct {
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNS: m.PauseTotalNs}
}

// memDelta is the allocation and GC activity between two snapshots.
type memDelta struct {
	allocMB float64
	gcCount float64
	pauseMS float64
}

func (a memSnapshot) to(b memSnapshot) memDelta {
	return memDelta{
		allocMB: float64(b.totalAlloc-a.totalAlloc) / 1e6,
		gcCount: float64(b.numGC - a.numGC),
		pauseMS: float64(b.pauseNS-a.pauseNS) / 1e6,
	}
}

// statusMB reads a memory field (such as "VmHWM" or "VmRSS") of
// /proc/self/status in MB; zero where that file does not exist.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssSampler samples the resident set size at a fixed interval until
// stopped. It allocates nothing while it runs, so it does not move alloc_mb.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

// maxRSSSamples bounds a window's samples (over 13 minutes at 50 ms); the
// slice is allocated once, before the window starts.
const maxRSSSamples = 1 << 14

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]float64, 0, maxRSSSamples)}
	f, err := os.Open("/proc/self/statm")
	go func() {
		defer close(s.done)
		if err != nil {
			<-s.stop // no /proc: no samples
			return
		}
		defer f.Close()
		var buf [128]byte
		pageMB := float64(os.Getpagesize()) / (1 << 20)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			// statm is "size resident shared ..." in pages; re-reading at
			// offset 0 regenerates it.
			if n, _ := f.ReadAt(buf[:], 0); n > 0 && len(s.samples) < cap(s.samples) {
				if pages, ok := secondField(buf[:n]); ok {
					s.samples = append(s.samples, float64(pages)*pageMB)
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// secondField parses the second space-separated decimal field of b.
func secondField(b []byte) (int64, bool) {
	i := 0
	for i < len(b) && b[i] != ' ' {
		i++
	}
	i++
	var v int64
	digits := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = 10*v + int64(b[i]-'0')
		digits++
	}
	return v, digits > 0
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// machine describes the host a run measured, so a later comparison can tell
// co-tenant drift (steal time) apart from a regression.
type machine struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealMS    float64 `json:"steal_ms"`
	StealPct   float64 `json:"steal_pct"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}

// cpuTicks returns the aggregate steal and total jiffies from /proc/stat
// (zeros where the file does not exist).
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user, so stop after steal.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the steal-time share of all CPU time between its
// creation and stop.
type stealMeter struct{ steal0, total0 float64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) stop() machine {
	s, t := cpuTicks()
	const jiffyMS = 10 // USER_HZ is 100 on Linux
	return machine{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealMS:    (s - m.steal0) * jiffyMS,
		StealPct:   100 * ratio(s-m.steal0, t-m.total0),
	}
}

// rssEvery is the resident-set sampling interval of a measured window.
const rssEvery = 50 * time.Millisecond

// rssWindow reports the 90th percentile of the resident set over a window.
// The maximum is in the record too, but it catches the moment a starved GC
// worker let the heap overshoot, which depends on the machine's other load.
func rssWindow(samples []float64, out *outcome) {
	out.e2e["rss_p90_mb"] = quantile(samples, 0.9)
	out.info["rss_max_mb"] = quantile(samples, 1)
	out.info["rss_samples"] = len(samples)
}
