package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dpgen/internal/codegen"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// genBench is the paper's deliverable: specs/bandit2.dps turned into a
// standalone Go program by codegen.Generate, built with go build, and
// run as a process. It never enters internal/engine.
type genBench struct {
	env      *environment
	specText string
	N        int64
	builds   int
}

func buildGenerated(env *environment) (bench, error) {
	text, err := readSpec(env, "bandit2.dps")
	if err != nil {
		return nil, err
	}
	return &genBench{env: env, specText: text, N: bandit2N(env)}, nil
}

func (b *genBench) setUp(sp *spans, parent spanID) (instance, error) {
	id := sp.begin("spec.Parse", parent)
	s, err := spec.Parse(b.specText)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("codegen.Generate", parent)
	src, err := codegen.Generate(s, codegen.Options{ParamDefaults: []int64{b.N}})
	sp.end(id)
	if err != nil {
		return nil, err
	}

	// Every set-up compiles: a trailing comment unique to this build
	// keeps go build from answering out of its cache, while the standard
	// library stays cached, as it is for anyone who has built before.
	b.builds++
	dir := filepath.Join(b.env.scratch, fmt.Sprintf("gen-%d", b.builds))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	src = append(src, fmt.Sprintf("\n// build %d of seed %d at %d\n", b.builds, b.env.seed, time.Now().UnixNano())...)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module generated\n\ngo 1.22\n"), 0o644); err != nil {
		return nil, err
	}
	bin := filepath.Join(dir, "prog")
	id = sp.begin("go build", parent)
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin, ".")
	build.Dir = dir
	build.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod")
	msg, err := build.CombinedOutput()
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("go build of the generated program: %w\n%s", err, msg)
	}
	row := bandit2Row(b.N)
	return &genInst{b: b, bin: bin, genBytes: len(src), cur: make([]float64, row), next: make([]float64, row)}, nil
}

type genInst struct {
	b         *genBench
	bin       string
	genBytes  int
	cur, next []float64
}

func (in *genInst) floor() []float64 { return []float64{floorBandit2(in.b.N, in.cur, in.next)} }
func (in *genInst) cells() int64     { return bandit2Cells(in.b.N) }
func (in *genInst) close()           {}

// solve runs the program and times the process from start to exit: the
// wall a user of the generated program sees, runtime start-up included.
func (in *genInst) solve(sp *spans, parent spanID, lay layers) ([]float64, time.Duration, error) {
	args := []string{"-N", strconv.FormatInt(in.b.N, 10), "-threads", strconv.Itoa(threads)}
	if lay != nil {
		args = append(args, "-stats")
	}
	cmd := exec.Command(in.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(threads))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	id := sp.begin("generated program", parent)
	t0 := time.Now()
	err := cmd.Run()
	took := time.Since(t0)
	sp.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("generated program: %w\n%s", err, stderr.Bytes())
	}
	out, err := parseProgramOutput(stdout.Bytes())
	if err != nil {
		return nil, 0, err
	}
	if lay != nil {
		// The program's init is its load balance and initial-tile scan —
		// what engine.Prepare is to the engine — and its total is its run.
		lay.add("prepare_ms", out.initSeconds*1e3)
		lay.add("run_ms", out.totalSeconds*1e3)
		lay.add("gen_init_s", out.initSeconds)
		lay.add("gen_total_s", out.totalSeconds)
		lay.add("gen_proc_wall_s", took.Seconds())
		lay.add("tiles", float64(out.tiles))
		lay.add("static_tiles", float64(out.static))
		lay.add("steals", float64(out.steals))
		lay.add("tiles_per_s", float64(out.tiles)/out.totalSeconds)
	}
	return []float64{out.value}, took, nil
}

func (in *genInst) probe(sp *spans, parent spanID, lay layers) error {
	// Generate runs the analysis inside itself; time it alone as well.
	s, err := spec.Parse(in.b.specText)
	if err != nil {
		return err
	}
	id := sp.begin("tiling.New", parent)
	_, err = tiling.New(s)
	sp.end(id)
	if err != nil {
		return err
	}
	lay.add("parse_ms", median(sp.ms("spec.Parse")))
	lay.add("analyze_ms", median(sp.ms("tiling.New")))
	lay.add("generate_ms", median(sp.ms("codegen.Generate")))
	lay.add("go_build_ms", median(sp.ms("go build")))
	lay.add("gen_bytes", float64(in.genBytes))
	return nil
}

type programOutput struct {
	value                     float64
	initSeconds, totalSeconds float64
	tiles, static, steals     int64
}

// parseProgramOutput reads the generated program's report: "value" is
// printed with %.17g, which round-trips a float64 exactly.
func parseProgramOutput(stdout []byte) (programOutput, error) {
	var out programOutput
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			continue
		}
		var err error
		switch f[0] {
		case "value":
			out.value, err = strconv.ParseFloat(f[1], 64)
		case "init_seconds":
			out.initSeconds, err = strconv.ParseFloat(f[1], 64)
		case "total_seconds":
			out.totalSeconds, err = strconv.ParseFloat(f[1], 64)
		case "node":
			// node 0 tiles T cells C ... static S steals X local_pops P
			for i := 2; i+1 < len(f); i += 2 {
				n, perr := strconv.ParseInt(f[i+1], 10, 64)
				if perr != nil {
					err = perr
					break
				}
				switch f[i] {
				case "tiles":
					out.tiles += n
				case "static":
					out.static += n
				case "steals":
					out.steals += n
				}
			}
		}
		if err != nil {
			return out, fmt.Errorf("generated program printed %q: %w", sc.Text(), err)
		}
		seen[f[0]] = true
	}
	for _, want := range []string{"value", "init_seconds", "total_seconds"} {
		if !seen[want] {
			return out, fmt.Errorf("generated program printed no %s line:\n%s", want, stdout)
		}
	}
	return out, nil
}
