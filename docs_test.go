package nwscpu_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	makeTargetDef = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeTargetArg = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	cmdDirRef     = regexp.MustCompile(`\bcmd/([a-z][a-z0-9_-]*)`)
	flagArg       = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	usageFlag     = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	inlineCode    = regexp.MustCompile("`([^`]+)`")
)

// TestDocsNameWhatExists is the drift gate between the operator-facing
// documents and the tree (make docs-check): every `make <target>` they show
// is a Makefile target, every cmd/<dir> they name is a directory, and every
// flag on an nwsd or nwsctl command line they show is in that binary's -h.
// Only code is read for targets and flags — fenced blocks and inline spans —
// so prose may still "make sure".
func TestDocsNameWhatExists(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, more...)

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetDef.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	flags := map[string]map[string]bool{"nwsd": helpFlags(t, "nwsd"), "nwsctl": helpFlags(t, "nwsctl")}

	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if os.IsNotExist(err) && strings.HasPrefix(doc, ".claude/") {
			continue // the skill is an optional companion, not part of the tree
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdDirRef.FindAllStringSubmatch(string(text), -1) {
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			}
		}
		for _, line := range codeLines(string(text)) {
			words := strings.Fields(line)
			for i, w := range words {
				switch base := filepath.Base(w); {
				case w == "make":
					for _, target := range words[i+1:] {
						if strings.HasPrefix(target, "-") || strings.Contains(target, "=") {
							continue // an option or a variable assignment
						}
						if !makeTargetArg.MatchString(target) {
							break
						}
						if !targets[target] {
							t.Errorf("%s shows `make %s`; the Makefile has no such target", doc, target)
						}
					}
				case flags[base] != nil:
					for _, arg := range words[i+1:] {
						if strings.ContainsAny(arg[:1], "&|;#)") {
							break // the command line ended
						}
						if m := flagArg.FindStringSubmatch(arg); m != nil && !flags[base][m[1]] {
							t.Errorf("%s shows `%s -%s`; %s -h has no such flag", doc, base, m[1], base)
						}
					}
				}
			}
		}
	}
}

// helpFlags runs one of the repo's commands with -h and returns the flag
// names its usage lists.
func helpFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	out, _ := exec.Command("go", "run", "./cmd/"+name, "-h").CombinedOutput() // -h exits non-zero by convention
	flags := map[string]bool{}
	for _, m := range usageFlag.FindAllStringSubmatch(string(out), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h listed no flags:\n%s", name, out)
	}
	return flags
}

// codeLines returns the code a markdown document shows, one command line per
// entry: the lines of fenced blocks, with backslash continuations joined, and
// the inline `spans` of everything else.
func codeLines(md string) []string {
	var out []string
	fenced, pending := false, ""
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				out = append(out, m[1])
			}
			continue
		}
		pending += line
		if strings.HasSuffix(pending, `\`) {
			pending = strings.TrimSuffix(pending, `\`) + " "
			continue
		}
		out = append(out, pending)
		pending = ""
	}
	return out
}
