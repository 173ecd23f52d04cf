package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is the record printed and stored with every result set, so a
// number is never separated from the machine and code it came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	DataFS     string `json:"data_fs"`
	GitCommit  string `json:"git_commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	Agents     int    `json:"agents"`
}

func collectEnv(root, dataDir string, seed int64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel(),
		CPUModel:   cpuModel(),
		DataFS:     filesystem(dataDir),
		GitCommit:  gitCommit(root),
		SourceHash: sourceHash(root),
		Seed:       seed,
		Agents:     agents,
	}
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%q cpu=%q data_fs=%q commit=%s source_sha256=%s seed=%d agents=%d",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.CPUModel, e.DataFS, e.GitCommit, e.SourceHash, e.Seed, e.Agents)
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS + " unknown"
	}
	return runtime.GOOS + " " + strings.TrimSpace(string(b)) + " " + runtime.GOARCH
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystem names the mount that holds dir: its type, device and mount
// point, from the longest matching mount point in /proc/self/mounts.
func filesystem(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		dev, mnt, typ := fields[0], fields[1], fields[2]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > bestLen {
			best, bestLen = fmt.Sprintf("%s (%s on %s)", typ, dev, mnt), len(mnt)
		}
	}
	return best
}

// gitCommit returns HEAD of the repository rooted exactly at root, or
// "none" when root is not a git work tree (a source export).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the Go sources and module files under root, skipping
// hidden directories (build output, VCS metadata): it identifies the code
// a result came from even where no git metadata exists.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
