package main

import (
	"bytes"
	"errors"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"stash"
	"stash/internal/cellcache"
)

// engines are the cellcache engines the per-engine table measures:
// the memory engine as a memory-only cache, and the two durable
// engines with gzip, the codec stashd-cold's node uses.
var engines = []struct {
	name    string
	durable bool
}{
	{"memory", false},
	{"log", true},
	{"pairtree", true},
}

// engineNamespace is the cache namespace the table's entries live in.
const engineNamespace = "bench"

// engineTable measures Put, Get and Open for every engine on real sweep
// lines: each line is put into a fresh cache, a durable cache is closed
// and reopened (open_ms is the reopen, holding every entry), and then
// each line is read back once, from the store tier for a durable
// engine. Every read must return the bytes that were put.
func engineTable(specs []stash.RunSpec, lines [][]byte, tr *tracer, rep *report) error {
	keys := make([]string, len(specs))
	for i, s := range specs {
		fp, err := s.Fingerprint()
		if err != nil {
			return err
		}
		keys[i] = fp
	}
	for _, e := range engines {
		spec := "memory://"
		dir := ""
		if e.durable {
			var err error
			if dir, err = os.MkdirTemp(workDir, "engine-"); err != nil {
				return err
			}
			abs, err := filepath.Abs(dir)
			if err != nil {
				return err
			}
			spec = (&url.URL{Scheme: e.name, Path: abs, RawQuery: "compress=gzip"}).String()
		}
		err := measureEngine(e.name, spec, e.durable, keys, lines, tr, rep)
		if dir != "" {
			err = errors.Join(err, os.RemoveAll(dir))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func measureEngine(name, spec string, durable bool, keys []string, lines [][]byte, tr *tracer, rep *report) error {
	timed := func(op string, f func() error) (float64, error) {
		start := time.Now()
		err := f()
		tr.record(0, name, op, start, time.Now())
		return time.Since(start).Seconds(), err
	}
	var c *cellcache.Cache
	open := func() (err error) {
		c, err = cellcache.Open(spec)
		return err
	}
	openS, err := timed("Open", open)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i, line := range lines {
		s, err := timed("Put", func() error { return c.Put(engineNamespace, keys[i], bytes.Clone(line)) })
		if err != nil {
			return errors.Join(err, c.Close())
		}
		puts = append(puts, s)
	}
	if durable {
		if err := c.Close(); err != nil {
			return err
		}
		if openS, err = timed("reopen", open); err != nil {
			return err
		}
	}
	for i, line := range lines {
		var got []byte
		var ok bool
		s, _ := timed("Get", func() error {
			got, ok = c.Get(engineNamespace, keys[i])
			return nil
		})
		gets = append(gets, s)
		if !ok || !bytes.Equal(got, line) {
			rep.check(name+" engine read", errors.New("Get did not return the bytes that were put"))
		}
	}
	rep.set("cellcache."+name+".open_ms", openS*1e3)
	rep.set("cellcache."+name+".put_us", median(puts)*1e6)
	rep.set("cellcache."+name+".get_us", median(gets)*1e6)
	return c.Close()
}
