package mvs

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsLinks verifies the documentation cross-reference graph:
// every intra-repo markdown link in the root *.md files and docs/*.md
// resolves to an existing file (and, for markdown targets with a
// #fragment, to an existing heading), and no unresolved wiki-style
// [[...]] placeholder survives. CI runs it as its own step so a broken
// docs link fails fast, before the build.
func TestDocsLinks(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.md", filepath.Join("docs", "*.md")} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			// ISSUE.md is the per-PR task spec, not documentation; it
			// quotes link syntax literally.
			if filepath.Base(m) == "ISSUE.md" {
				continue
			}
			files = append(files, m)
		}
	}
	if len(files) < 5 {
		t.Fatalf("found only %d markdown files — glob broken?", len(files))
	}

	linkRE := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	wikiRE := regexp.MustCompile(`\[\[[^\]]+\]\]`)
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if dangling := wikiRE.FindAllString(text, -1); len(dangling) > 0 {
			t.Errorf("%s: unresolved wiki-style links %v", file, dangling)
		}
		for _, m := range linkRE.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue // external; not this test's job to probe the network
			}
			path, fragment, _ := strings.Cut(target, "#")
			if path == "" {
				// Same-file anchor.
				if fragment != "" && !hasAnchor(text, fragment) {
					t.Errorf("%s: links missing same-file anchor #%s", file, fragment)
				}
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), path)
			info, err := os.Stat(resolved)
			if err != nil {
				t.Errorf("%s: link target %q does not resolve (%v)", file, target, err)
				continue
			}
			if fragment != "" && !info.IsDir() && strings.HasSuffix(path, ".md") {
				dest, err := os.ReadFile(resolved)
				if err != nil {
					t.Fatal(err)
				}
				if !hasAnchor(string(dest), fragment) {
					t.Errorf("%s: %q has no heading for anchor #%s", file, path, fragment)
				}
			}
		}
	}
}

// hasAnchor reports whether the markdown text contains a heading whose
// GitHub-style slug equals the fragment.
func hasAnchor(text, fragment string) bool {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if slugify(heading) == fragment {
			return true
		}
	}
	return false
}

// slugify approximates GitHub's heading-anchor rule: lowercase, drop
// everything but letters/digits/spaces/hyphens, spaces become hyphens.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}

// TestDocsNameExistingBenchmarks holds every Benchmark identifier that
// README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and the non-test Go
// files under internal/ and cmd/ name to a func of that name in some
// _test.go file of the tree, so a deleted or renamed benchmark cannot
// stay cited as a timing's producer. CHANGES.md and ROADMAP.md record
// history and name benchmarks that are gone; bench/ is the benchmark
// module, with its own drills.
func TestDocsNameExistingBenchmarks(t *testing.T) {
	defRE := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	refRE := regexp.MustCompile(`\bBenchmark[A-Z0-9]\w*`)
	defined := map[string]bool{}
	var sources []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			raw, err := os.ReadFile(path)
			for _, m := range defRE.FindAllStringSubmatch(string(raw), -1) {
				defined[m[1]] = true
			}
			return err
		case strings.HasSuffix(path, ".go"):
			if top, _, _ := strings.Cut(filepath.ToSlash(path), "/"); top == "internal" || top == "cmd" {
				sources = append(sources, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := filepath.Glob(filepath.Join("docs", "*.md")) // the pattern is well formed
	sources = append(append(sources, docs...), "README.md", "DESIGN.md", "EXPERIMENTS.md")
	if len(defined) == 0 || len(sources) < 50 {
		t.Fatalf("found %d benchmarks and %d files to check — walk broken?", len(defined), len(sources))
	}
	for _, file := range sources {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range refRE.FindAllString(string(raw), -1) {
			if !defined[name] {
				t.Errorf("%s names %s, which no _test.go file defines", file, name)
			}
		}
	}
}
