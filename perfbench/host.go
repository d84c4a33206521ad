package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance stamps a result with the host it ran on and the code and
// inputs it measured, so only like hosts and like code are compared.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the git HEAD of the repository root, or "none" in a
	// checkout that is not a git repository; Source then identifies the
	// code: the sha256 over every Go source, go.mod and spec file.
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Spec       string `json:"spec"`
	SpecSHA256 string `json:"spec_sha256"`
}

func newProvenance(root string, w workloadDef, seed uint64, doc []byte) provenance {
	sum := sha256.Sum256(doc)
	return provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
		Seed:       seed,
		Workload:   w.Name,
		Spec:       w.Spec,
		SpecSHA256: hex.EncodeToString(sum[:]),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program under test: every .go file, go.mod and
// everything under specs/, by relative path and content, skipping hidden
// directories (build output, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" || strings.HasPrefix(rel, "specs"+string(filepath.Separator)) {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		sum := sha256.Sum256(data)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
