package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// describeEnv prints the machine and the code under test, so every
// report says what it measured.
func (b *bench) describeEnv() {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	b.note("cpu: %s, nproc: %d, GOMAXPROCS: %d (daemons use their default, nproc), go: %s",
		cpu, b.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	b.note("code: %s", codeVersion(b.root))
	b.note("seed: %d, seconds: %g, trace: %v", b.seed, b.seconds, b.traced)
}

// codeVersion is the commit hash when the checkout is a git work tree,
// and otherwise a SHA-256 over the Go sources and module files, which
// identifies the tree just as well.
func codeVersion(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return "commit " + strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return fmt.Sprintf("not a git checkout; source tree sha256 %x", h.Sum(nil))
}
