package lexer

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// mismatch lexes src through Lex's fast path and through slowNext alone and
// describes the first difference in the tokens, the error or the comment
// and splice counts; "" means they agree.
func mismatch(name string, src []byte) string {
	lx := New(name, src)
	got, gotErr := lx.Tokens()
	want, slow, wantErr := lexSlow(name, src)
	if !reflect.DeepEqual(gotErr, wantErr) {
		return fmt.Sprintf("%s: error %v, slow path %v", name, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				return fmt.Sprintf("%s: token %d is %+v, slow path %+v", name, i, got[i], want[i])
			}
		}
		return fmt.Sprintf("%s: %d tokens, slow path %d", name, len(got), len(want))
	}
	if lx.Comments != slow.Comments || lx.Splices != slow.Splices {
		return fmt.Sprintf("%s: %d comments, %d splices; slow path %d, %d",
			name, lx.Comments, lx.Splices, slow.Comments, slow.Splices)
	}
	return ""
}

// fastPathSeeds cover every way a token can reach the slow path, and the
// fast path's own edges.
var fastPathSeeds = []string{
	"int main(void) { return 0; }\n",
	"foo\\\nbar foo\\\r\nbar 12\\\n34 0x\\\n1p-3 a+\\\n+b a-\\\r\n>b x<<\\\n= 1",
	"a /\\\n/ line comment\nb /\\\n* block *\\\n/ c\n",
	"// line \\\n continued\nx /* a \\\n b */ y\n",
	"a\rb\r\nc\r",
	"\r\\\n\n",
	"<% %> <: :> %: %:%: %:% %",
	`L"x" L'x' L"a\"b" L\` + "\n" + `"s"`,
	".5 1e+5 0x1p-3 1E-3 1.2.3 .. ... .\\\n5 1e\\\n+5",
	"/*/ */ /**/ /***/ x",
	"/* never closed",
	"/* never closed \\",
	`"never closed`,
	"\"newline\n\"",
	`"escape at end\`,
	`'\\' "\\" "\"" '\'' "\n\t" "a\\` + "\n" + `b"`,
	"\"\\\\\\\n\" '\\\r\n'",
	"$x a$b $ 1$",
	"\xc3\xa9t\xe9 \x80 \xff @ ` \x00 \\ \\x",
	"#define X(a) #a ## b\n#  include <x.h>\n",
	"x\t\v\fy /**/z",
	"a/",
	"1e",
	"L",
	"\\",
}

func FuzzLexFastPath(f *testing.F) {
	for _, s := range fastPathSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if m := mismatch("fuzz.c", src); m != "" {
			t.Fatal(m)
		}
	})
}

// TestLexSystemHeaders compares the two scanners on every header of the
// system's C library and compiler, the real C with the most splices and
// odd layout on hand. Headers are spread over GOMAXPROCS workers.
func TestLexSystemHeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("lexes every system header twice")
	}
	roots := []string{"/usr/include"}
	if out, err := exec.Command("gcc", "-print-file-name=include").Output(); err == nil {
		roots = append(roots, strings.TrimSpace(string(out)))
	}
	var paths []string
	for _, root := range roots {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".h") {
				paths = append(paths, path)
			}
			return nil
		})
	}
	if len(paths) == 0 {
		t.Skip("no system headers found")
	}
	work := make(chan string)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range work {
				if src, err := os.ReadFile(path); err == nil {
					if m := mismatch(path, src); m != "" {
						t.Error(m)
					}
				}
			}
		}()
	}
	for _, path := range paths {
		work <- path
	}
	close(work)
	wg.Wait()
	t.Logf("%d headers compared", len(paths))
}
