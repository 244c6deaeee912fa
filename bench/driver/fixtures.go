package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"phrasemine/bench/workload"
)

// corpusScale maps a fixture name to its scale of synth.ReutersLike():
// rq is 5 394 documents / 2.8 MB of text, rs 2 157 / 1.1 MB, rt 647 /
// 0.3 MB. The corpus preset's own seed stays fixed; --seed never reaches
// datagen.
var corpusScale = map[string]float64{"rq": 0.25, "rs": 0.1, "rt": 0.03}

// harvestMinDF is the document frequency a phrase needs to be harvested
// as a keyword set (the paper's sets come from frequent phrases, §5.1).
const harvestMinDF = 10

// fixtures locates the files the CLI built under one directory.
type fixtures struct {
	dir string
	bin string // directory holding the phrasemine and datagen binaries
}

func (f fixtures) text(name string) string     { return filepath.Join(f.dir, name+".txt") }
func (f fixtures) snapshot(name string) string { return filepath.Join(f.dir, name+".snap") }
func (f fixtures) manifest(name string) string { return filepath.Join(f.dir, name+".man") }
func (f fixtures) pool(name string) string     { return filepath.Join(f.dir, name+".pool.json") }
func (f fixtures) stamp() string               { return filepath.Join(f.dir, "built.json") }

// stampFile records what the fixtures were built from and their hashes;
// it is written last, so its presence means the directory is complete.
type stampFile struct {
	// Binary is the sha256 of the phrasemine binary that built them: a
	// source change that alters the binary rebuilds the fixtures. Pool is
	// the workload.PoolVersion of the harvest pools, likewise.
	Binary string            `json:"binary"`
	Pool   int               `json:"pool"`
	Hashes map[string]string `json:"hashes"`
}

// ensure builds whatever fixture is missing or stale, using only the CLI:
// datagen writes each corpus, build-index its snapshot and, for the
// corpora named in sharded, the 4-segment manifest. Every corpus is built
// whichever workload asked — rs is small and the ladder reads it — so the
// whole cost lands on the first run in a checkout.
func (f fixtures) ensure(sharded map[string]bool) (stampFile, error) {
	binHash, err := fileHash(filepath.Join(f.bin, "phrasemine"))
	if err != nil {
		return stampFile{}, err
	}
	var st stampFile
	if raw, err := os.ReadFile(f.stamp()); err == nil {
		if json.Unmarshal(raw, &st) != nil || st.Binary != binHash || st.Pool != workload.PoolVersion {
			st = stampFile{}
		}
	}
	if st.Binary == "" {
		if err := os.RemoveAll(f.dir); err != nil {
			return st, err
		}
		st = stampFile{Binary: binHash, Pool: workload.PoolVersion, Hashes: map[string]string{}}
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return st, err
	}
	changed := false
	for name := range corpusScale {
		if _, ok := st.Hashes[name+".snap"]; !ok {
			if err := f.buildCorpus(name); err != nil {
				return st, err
			}
			h, err := fileHash(f.snapshot(name))
			if err != nil {
				return st, err
			}
			st.Hashes[name+".snap"] = h
			changed = true
		}
		if _, ok := st.Hashes[name+".man"]; !ok && sharded[name] {
			if err := f.run("phrasemine", "build-index", "-in", f.text(name), "-out", f.manifest(name), "-segments", "4"); err != nil {
				return st, err
			}
			h, err := fileHash(filepath.Join(f.manifest(name), "manifest.json"))
			if err != nil {
				return st, err
			}
			st.Hashes[name+".man"] = h
			changed = true
		}
	}
	if changed {
		raw, err := json.Marshal(st)
		if err != nil {
			return st, err
		}
		if err := os.WriteFile(f.stamp(), raw, 0o644); err != nil {
			return st, err
		}
	}
	return st, nil
}

// buildCorpus writes name.txt, name.snap and the harvest pool.
func (f fixtures) buildCorpus(name string) error {
	scale, ok := corpusScale[name]
	if !ok {
		return fmt.Errorf("unknown fixture %q", name)
	}
	if err := f.run("datagen", "-dataset", "reuters", "-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-out", f.text(name)); err != nil {
		return err
	}
	if err := f.run("phrasemine", "build-index", "-in", f.text(name), "-out", f.snapshot(name)); err != nil {
		return err
	}
	c, err := workload.ReadCorpus(f.text(name))
	if err != nil {
		return err
	}
	raw, err := json.Marshal(workload.BuildPool(c, harvestMinDF))
	if err != nil {
		return err
	}
	return os.WriteFile(f.pool(name), raw, 0o644)
}

func (f fixtures) run(tool string, args ...string) error {
	cmd := exec.Command(filepath.Join(f.bin, tool), args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w", tool, args, err)
	}
	return nil
}

// load reads a corpus and its harvest pool.
func (f fixtures) load(name string) (*workload.Corpus, workload.Pool, error) {
	c, err := workload.ReadCorpus(f.text(name))
	if err != nil {
		return nil, workload.Pool{}, err
	}
	pool, err := workload.ReadPool(f.pool(name))
	return c, pool, err
}

func fileHash(path string) (string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer fh.Close()
	h := sha256.New()
	if _, err := io.Copy(h, fh); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dirBytes sums the sizes of the regular files under path (a file or a
// directory): the "bytes on disk" of disk_amp.
func dirBytes(path string) (int64, error) {
	var total int64
	err := filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
