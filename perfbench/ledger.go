package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The layer ledger: a CPU profile's samples folded, by the function names
// on each stack, into the layers the program is built from. layers.txt is
// the package→layer table (see README.md).

// ledgerLayers are the layers the ledger must account for; their shares
// must cover at least minCoverage of the CPU samples. Everything else —
// the benchmark's own code and the observability layer — is "other".
var ledgerLayers = []string{"cpu", "trace", "mcm", "infer", "io", "runtime", "other"}

const minCoverage = 0.95

//go:embed layers.txt
var layersTxt string

// ledgerTable is the parsed layers.txt.
var ledgerTable = mustParseTable(layersTxt)

// layerTable maps function-name prefixes to layers. An entry ending in "."
// matches every function of that package; one ending in "*" matches every
// name starting with the rest; any other entry matches the named function
// and its closures. The longest match wins.
type layerTable map[string]string

func mustParseTable(text string) layerTable {
	t, err := parseTable(text)
	if err != nil {
		panic(err) // layers.txt is embedded: a bad table is a build defect
	}
	return t
}

func parseTable(text string) (layerTable, error) {
	t := layerTable{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("layers.txt:%d: want \"prefix layer\", got %q", n, line)
		}
		known := false
		for _, l := range ledgerLayers {
			known = known || l == f[1]
		}
		if !known {
			return nil, fmt.Errorf("layers.txt:%d: unknown layer %q", n, f[1])
		}
		t[f[0]] = f[1]
	}
	return t, sc.Err()
}

// layerOf returns the layer of one function name, or "" when the table
// does not place it (the runtime's helpers, the standard library).
func (t layerTable) layerOf(fn string) string {
	best, layer := -1, ""
	for entry, l := range t {
		prefix, wild := strings.CutSuffix(entry, "*")
		ok := strings.HasPrefix(fn, prefix) && (wild || strings.HasSuffix(prefix, ".") ||
			len(fn) == len(prefix) || fn[len(prefix)] == '.')
		if ok && len(prefix) > best {
			best, layer = len(prefix), l
		}
	}
	return layer
}

// attribute places one stack (leaf first): the first frame the table
// places decides, so a memmove called by the inference kernels is infer
// and a GC assist is runtime. A stack no frame of which is placed — the
// scheduler, background GC workers, timers — is runtime.
func (t layerTable) attribute(stack []string) string {
	for _, fn := range stack {
		if l := t.layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// foldProfile adds a gzipped pprof CPU profile's sample counts, by layer,
// into counts.
func foldProfile(raw []byte, t layerTable, counts map[string]int64) error {
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	cache := map[string]string{}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		key := strings.Join(stack, ";")
		l, ok := cache[key]
		if !ok {
			l = t.attribute(stack)
			cache[key] = l
		}
		counts[l] += s.count
	}
	return nil
}

// layerShares turns sample counts into per-layer shares summing to 1, plus
// "covered": the share of the ledger layers proper (all but "other").
func layerShares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for _, l := range ledgerLayers {
		out[l] = float64(counts[l]) / float64(total)
		if l != "other" {
			out["covered"] += out[l]
		}
	}
	return out
}

// A minimal reader for the pprof profile.proto format: just the samples,
// locations, functions and string table the fold needs.

type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: sample count
}

func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		samples []sample
		locs    = map[uint64][]uint64{} // location → function ids
		funcs   = map[uint64]int64{}    // function id → name string index
	)
	err = pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			s, err := parseSample(data)
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fids
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fids := range locs {
		for _, fid := range fids {
			i, ok := funcs[fid]
			if !ok || i < 0 || i >= int64(len(strs)) {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", id, fid)
			}
			p.locFuncs[id] = append(p.locFuncs[id], strs[i])
		}
	}
	return p, nil
}

func parseSample(b []byte) (sample, error) {
	var s sample
	var values []uint64
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		var dst *[]uint64
		switch num {
		case 1:
			dst = &s.locs
		case 2:
			dst = &values
		default:
			return nil
		}
		if data == nil {
			*dst = append(*dst, v)
			return nil
		}
		for len(data) > 0 { // packed repeated varints
			x, n := pbVarint(data)
			if n <= 0 {
				return errMalformed
			}
			*dst = append(*dst, x)
			data = data[n:]
		}
		return nil
	})
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s, err
}

var errMalformed = errors.New("profile: malformed protobuf")

// pbFields calls fn for each field of a protobuf message: varint fields
// with v set and data nil, length-delimited fields with data set (never
// nil, possibly empty). Fixed-width fields are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errMalformed
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
		default:
			return errMalformed
		}
	}
	return nil
}

// pbVarint decodes one base-128 varint; n <= 0 means malformed.
func pbVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
