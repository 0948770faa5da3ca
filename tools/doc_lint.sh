#!/bin/sh
# Documentation lint: keep the prose honest against the real CLI.
#
#   1. Every `nocplan <subcommand>` mentioned inside a fenced code
#      block of README.md / OBSERVABILITY.md must be a real
#      subcommand of the built binary.
#   1b. The CLI flag surface and the README must agree both ways:
#      every option flag declared by any subcommand's --help is
#      documented in README.md, every --flag used in a fenced
#      nocplan example is a real flag (--help/--version exempt), and
#      every --flag in a subcommand's row of the README flag table
#      (| `cmd` | … |) is declared by that subcommand's --help, and
#      every --flag inside an inline `code span` of README.md /
#      OBSERVABILITY.md prose is declared by some subcommand's --help
#      or by the bench harness's --help (spans quoting an `opam …`
#      command line are another tool's flags and skipped).
#   2. Every markdown file the README links to must exist.
#   3. OBSERVABILITY.md must be reachable from README.md (the span
#      taxonomy is documentation-as-contract for the golden tests).
#   4. The observability contract and the code must agree both ways:
#      every literal name passed to Trace.span / Trace.instant /
#      Trace.begin_span under lib/, and every "nocplan_*" metric name
#      literal under lib/, has a row in an OBSERVABILITY.md table; and
#      every name in the first column of the span-taxonomy and metric
#      tables is a string literal somewhere under lib/.
#   5. Module references in README.md, DESIGN.md and OBSERVABILITY.md
#      resolve: every `Core.X`, `Fault.X` or `Nocplan_<lib>.X` names a
#      module X of that library, and every backticked `Mod.name` whose
#      Mod is a module under lib/*/ names something Mod's .mli declares
#      (a value, type, record field, exception, module or constructor),
#      so a deleted module or function cannot linger in the prose.
#   6. If odoc is installed, `dune build @doc` must succeed; when it
#      is not installed the check is skipped with a notice (the CI
#      image does not ship odoc).
#
# Run from the repository root: `make doc-lint` or `sh tools/doc_lint.sh`.

set -eu

fail=0
err() { echo "doc-lint: $1" >&2; fail=1; }

BIN=_build/default/bin/nocplan.exe
BENCH=_build/default/bench/main.exe
for exe in "$BIN" "$BENCH"; do
  if [ ! -x "$exe" ]; then
    echo "doc-lint: building $exe" >&2
    dune build "${exe#_build/default/}"
  fi
done

# -- 1. CLI subcommands referenced in code fences ---------------------------

# COMMANDS section of --help=plain: subcommand names are the first
# word of indented entries.
subcommands=$("$BIN" --help=plain 2>/dev/null \
  | awk '/^COMMANDS/{s=1;next} /^[A-Z]/{s=0} s && /^       [a-z]/{print $1}' \
  | sort -u)
[ -n "$subcommands" ] || { err "could not extract subcommands from $BIN --help"; }

for doc in README.md OBSERVABILITY.md; do
  [ -f "$doc" ] || { err "$doc missing"; continue; }
  # Words following `nocplan` / `nocplan.exe --` inside ``` fences.
  mentioned=$(awk '/^```/{f=!f;next} f' "$doc" \
    | grep -oE 'nocplan(\.exe)?( --)? [a-z][a-z0-9-]*' \
    | awk '{print $NF}' | sort -u || true)
  for cmd in $mentioned; do
    if ! printf '%s\n' "$subcommands" | grep -qx "$cmd"; then
      err "$doc references unknown subcommand 'nocplan $cmd'"
    fi
  done
done

# -- 1b. CLI flags: --help and the README must agree ------------------------

# Option flags a subcommand's help page declares.  Declaration lines
# are exactly 7-space indented ("       --flag=VAL" or
# "       -x VAL, --flag=VAL"); deeper-indented description prose is
# excluded so a doc string mentioning another flag cannot declare it.
help_flags() {
  "$BIN" "$1" --help=plain 2>/dev/null \
    | grep -E '^       -' \
    | grep -oE -e '--[a-z][a-z0-9-]*' || true
}

# Union of declared option flags across every subcommand's help page.
cli_flags=$(for cmd in $subcommands; do help_flags "$cmd"; done \
  | sort -u | grep -vE '^--(help|version)$' || true)
[ -n "$cli_flags" ] || err "could not extract option flags from $BIN help pages"

# Forward: every real flag is documented somewhere in the README.  The
# word boundary keeps --trace from being satisfied by --trace-ring.
for f in $cli_flags; do
  grep -qE -e "(^|[^a-z0-9-])$f([^a-z0-9-]|\$)" README.md \
    || err "README.md does not document CLI flag $f"
done

# Reverse: every --flag used in a fenced nocplan example is real.
readme_flags=$(awk '/^```/{f=!f;next} f && /nocplan/' README.md \
  | grep -oE -e '--[a-z][a-z0-9-]*' | sort -u || true)
for f in $readme_flags; do
  case "$f" in
    --help|--version) continue ;;
  esac
  printf '%s\n' "$cli_flags" | grep -qx -e "$f" \
    || err "README.md fenced example uses unknown CLI flag $f"
done

# Table: every --flag in a subcommand's flag-table row is that
# subcommand's own, so a removed flag cannot linger in the table.
for cmd in $subcommands; do
  row_flags=$(grep -E "^\| \`$cmd\` \|" README.md \
    | grep -oE -e '--[a-z][a-z0-9-]*' | sort -u || true)
  [ -n "$row_flags" ] || continue
  declared=$(help_flags "$cmd")
  for f in $row_flags; do
    printf '%s\n' "$declared" | grep -qx -e "$f" \
      || err "README.md flag table lists $f for $cmd, which 'nocplan $cmd --help' does not declare"
  done
done

# Prose: every --flag quoted in an inline code span outside the fences
# is real, so a removed flag cannot linger in a bullet or a paragraph.
# The bench harness's flags (its --help lines start "  --flag") count.
bench_flags=$("$BENCH" --help 2>/dev/null \
  | grep -oE -e '^  --[a-z][a-z0-9-]*' | tr -d ' ' || true)
[ -n "$bench_flags" ] || err "could not extract option flags from $BENCH --help"
for doc in README.md OBSERVABILITY.md; do
  prose_flags=$(awk '/^```/{f=!f;next} !f' "$doc" \
    | grep -oE '`[^`]*`' | grep -vE '^`opam ' \
    | grep -oE -e '--[a-z][a-z0-9-]*' | sort -u || true)
  for f in $prose_flags; do
    case "$f" in
      --help|--version) continue ;;
    esac
    printf '%s\n%s\n' "$cli_flags" "$bench_flags" | grep -qx -e "$f" \
      || err "$doc mentions \`$f\`, which neither a nocplan subcommand nor the bench declares"
  done
done

# -- 2. Local markdown links from the README --------------------------------

for target in $(grep -oE '\]\([A-Za-z0-9_./-]+\.md\)' README.md \
                  | sed 's/^](//; s/)$//' | sort -u); do
  [ -f "$target" ] || err "README.md links to missing file $target"
done

# -- 3. OBSERVABILITY.md reachable from README ------------------------------

grep -q 'OBSERVABILITY\.md' README.md \
  || err "README.md does not link OBSERVABILITY.md"
grep -q 'OBSERVABILITY\.md' DESIGN.md \
  || err "DESIGN.md does not reference OBSERVABILITY.md"

# -- 4. Observability contract: emitted names <-> OBSERVABILITY.md ----------

emitted=$( (grep -rhoE 'Trace\.(span|instant|begin_span) "[a-z_.]+"' lib \
              --include='*.ml' | sed 's/.* "//; s/"$//'
            grep -rhoE '"nocplan_[a-z_]+"' lib --include='*.ml' | tr -d '"') \
          | sort -u)
[ -n "$emitted" ] || err "could not extract trace/metric names from lib/"

# Table rows of OBSERVABILITY.md, and the backquoted names in the first
# column of the span-taxonomy ("| name |") and metric ("| metric |")
# tables.
table_rows=$(grep -E '^\|' OBSERVABILITY.md || true)
documented=$(awk '
    /^\| (name|metric) \|/ { t = 1; next }
    t && !/^\|/ { t = 0 }
    t && !/^\|---/ { split($0, c, "|"); print c[2] }' OBSERVABILITY.md \
  | grep -oE '`[a-z_.]+`' | tr -d '`' | sort -u || true)
[ -n "$documented" ] || err "could not extract names from OBSERVABILITY.md tables"

for name in $emitted; do
  printf '%s\n' "$table_rows" | grep -qF -e "\`$name\`" \
    || err "OBSERVABILITY.md has no row for emitted name $name"
done
for name in $documented; do
  grep -rqF -e "\"$name\"" lib --include='*.ml' \
    || err "OBSERVABILITY.md documents $name, which nothing under lib/ emits"
done

# -- 5. Module references resolve against lib/ -----------------------------

ref_docs="README.md DESIGN.md OBSERVABILITY.md"
uncap() { printf '%s' "$1" | awk '{ print tolower(substr($0, 1, 1)) substr($0, 2) }'; }

for doc in $ref_docs; do
  for ref in $(grep -oE '\b(Core|Fault|Nocplan_[a-z0-9]+)\.[A-Z][A-Za-z0-9_]*' "$doc" \
                 | sort -u); do
    lib=${ref%%.*}
    case "$lib" in
      Core) dir=lib/core ;;
      Fault) dir=lib/fault ;;
      *) dir=lib/${lib#Nocplan_} ;;
    esac
    [ -f "$dir/$(uncap "${ref#*.}").ml" ] \
      || err "$doc references $ref, which $dir/ does not define"
  done
done

# [declares mli name]: the interface declares [name] — a value, type,
# record field or class member when lowercase; a module, module type,
# exception or constructor when capitalised.
declares() {
  case "$2" in
    [A-Z]*) grep -qE -e "^[[:space:]]*(module( type)?|exception)[[:space:]]+$2\b" \
              -e "(^|[|=])[[:space:]]*$2([[:space:]]|\)|\$)" "$1" ;;
    *) grep -qE -e "^[[:space:]]*(val|external|method)[[:space:]]+$2[[:space:]]*:" \
         -e "^[[:space:]]*(type|and)([[:space:]]+(nonrec|'[a-z]+|\([^)]*\)))*[[:space:]]+$2([[:space:]]|=|\$)" \
         -e "(^|[{;])[[:space:]]*(mutable[[:space:]]+)?$2[[:space:]]*:" "$1" ;;
  esac
}

for doc in $ref_docs; do
  # Inline code spans outside fences; a leading library qualifier
  # (Core.Backend.race) is dropped so the module comes first.
  refs=$(awk '/^```/{f=!f;next} !f' "$doc" | grep -oE '`[^`]*`' \
    | grep -oE '([A-Z][A-Za-z0-9_]*\.)+[A-Za-z_][A-Za-z0-9_]*' \
    | sed -E 's/^(Core|Fault|Noc|Proc|Itc02|Obs|Serve|Corpus|Nocplan_[a-z0-9]+)\.([A-Z])/\2/' \
    | sort -u || true)
  for ref in $refs; do
    mod=${ref%%.*}
    rest=${ref#*.}
    [ "$rest" != "$ref" ] || continue
    name=${rest%%.*}
    found=0 declared=0
    for mli in lib/*/"$(uncap "$mod")".mli; do
      [ -f "$mli" ] || continue
      found=1
      if declares "$mli" "$name"; then declared=1; fi
    done
    [ "$found" -eq 0 ] || [ "$declared" -eq 1 ] \
      || err "$doc mentions \`$mod.$name\`, which no lib/*/$(uncap "$mod").mli declares"
  done
done

# -- 6. odoc (optional) ------------------------------------------------------

if command -v odoc >/dev/null 2>&1; then
  echo "doc-lint: odoc found, building @doc" >&2
  dune build @doc || err "dune build @doc failed"
else
  echo "doc-lint: odoc not installed, skipping API-doc build" >&2
fi

if [ "$fail" -ne 0 ]; then
  echo "doc-lint: FAILED" >&2
  exit 1
fi
echo "doc-lint: ok"
