#!/usr/bin/env bash
# End-to-end checks of the choiceless-lab console script: run in an empty directory
# with choiceless-lab on PATH (or the README's shim); a failed check prints its report.
set -eo pipefail
# rename IN OUT: IN with the atoms on its first line renamed z<n> down to z1
rename() { python3 -c 'import re, sys; t = sys.stdin.read(); names = t.split("\n", 1)[0].split()[1:]; new = {a: f"z{len(names) - i}" for i, a in enumerate(names)}; print(re.sub(r"[A-Za-z_][A-Za-z0-9_.+-]*", lambda x: new.get(x.group(), x.group()), t), end="")' < "$1" > "$2"; }
# ... | expect EXPR: the Python expression EXPR holds of the JSON r on stdin
expect() {
  local out="$(cat)"
  python3 -c 'import json, sys; r = json.load(sys.stdin); assert eval(sys.argv[1])' "$1" <<< "$out" || { echo "expected $1 of:"; echo "$out"; exit 1; }
}
# exits CODE OUT CMD...: CMD exits with status CODE, its report written to OUT
exits() {
  local code=$1 out=$2 status=0
  "${@:3}" > "$out" || status=$?
  test "$status" = "$code" || { echo "${*:3} exited $status, not $code:"; cat "$out"; exit 1; }
}
# same EXPR 'SEED:IN...' CMD...: CMD, with a leading @ in its arguments read
# as IN, gives one result under each PYTHONHASHSEED=SEED, and EXPR holds of it
same() {
  local want=$1 runs=$2 run first=
  shift 2
  for run in $runs; do
    : "${first:=${run/:/-}.json}"
    PYTHONHASHSEED="${run%%:*}" "${@/#@/${run#*:}}" | python3 -c 'import json, sys; out = sys.stdin.read(); r = json.loads(out); print(json.dumps(r["result"], sort_keys=True)) if "result" in r else sys.exit(out)' > "${run/:/-}.json"
    cmp "$first" "${run/:/-}.json" || { cat "$first" "${run/:/-}.json"; exit 1; }
  done
  expect "$want" < "$first"
}
# decided IN: solve matching's verdict on IN is yes exactly when
# --max-size matches all of A; each run has 10 s
decided() {
  local verdict size na
  verdict="$(timeout 10 choiceless-lab solve matching --input "$1" | python3 -c 'import json, sys; print(json.load(sys.stdin)["result"]["verdict"])')"
  size="$(timeout 10 choiceless-lab solve matching --input "$1" --max-size | python3 -c 'import json, sys; print(json.load(sys.stdin)["result"]["max_matching"])')"
  na="$(grep '^rel InA/1:' "$1" | grep -o '(' | wc -l)"
  test "$verdict" = "$(if [ "$size" = "$na" ]; then echo yes; else echo no; fi)" || { echo "$1: verdict $verdict, but --max-size $size with |A| = $na"; exit 1; }
}
# lean PROFILE: the import profile PROFILE loads neither dataclasses nor
# the inspect it brings in (no class of the package is a dataclass), nor
# string (the structure reader spells out its name characters)
lean() {
  if grep -E '\|\s*(dataclasses|inspect|string)\s*$' "$1"; then echo "$1: the command imported the modules above"; exit 1; fi
}
# agree M: solve det gives the matrix M one verdict by power and by gauss
agree() {
  local power gauss
  power="$(timeout 10 choiceless-lab solve det --matrix "$1" --method power | python3 -c 'import json, sys; print(json.load(sys.stdin)["result"]["nonsingular"])')"
  gauss="$(timeout 10 choiceless-lab solve det --matrix "$1" --method gauss | python3 -c 'import json, sys; print(json.load(sys.stdin)["result"]["nonsingular"])')"
  test "$power" = "$gauss" || { echo "$1: power says $power, gauss says $gauss"; exit 1; }
}

choiceless-lab gen bipartite --na 300 --nb 300 --density 0.02 --seed 1 --file g.str
choiceless-lab solve matching --input g.str --max-size | expect '"max_matching" in r["result"]'
python3 -c 'n = 3000; a = [f"a{i}" for i in range(n)]; b = [f"b{i}" for i in range(n)]; r = [f"({a[i]},{b[i]})" for i in range(n)] + [f"({a[i + 1]},{b[i]})" for i in range(n - 1)]; print("atoms:", *a, *b); print("rel InA/1:", *(f"({v})" for v in a)); print("rel InB/1:", *(f"({v})" for v in b)); print("rel R/2:", *r)' > path.str
timeout 10 choiceless-lab solve matching --input path.str --max-size | expect 'r["result"]["max_matching"] == 3000'
timeout 10 choiceless-lab solve matching --input path.str | expect 'r["result"]["verdict"] == "yes"'
# a large sparse random graph, whose coloring ends nearly discrete:
# its maximum matching may depend on neither hash order nor names
choiceless-lab gen bipartite --na 3000 --nb 3000 --density 0.0013 --seed 2 --file sparse.str > /dev/null
rename sparse.str renamed-sparse.str
same '"max_matching" in r' '1:sparse 2:sparse 1:renamed-sparse' timeout 10 choiceless-lab solve matching --input @.str --max-size
# and the decision, which stops at its first failed search, likewise
same '"verdict" in r' '1:sparse 2:sparse 1:renamed-sparse' timeout 10 choiceless-lab solve matching --input @.str
# the decision, which may answer no from the degree partition alone,
# agrees with the maximum matching size
for g in sparse renamed-sparse path; do decided "$g.str"; done
printf 'atoms: a b c d e\n' > five.str
programs="$(python3 -c 'import importlib.resources as r; print(r.files("choiceless_lab") / "programs")')"
choiceless-lab bgs run --program "$programs/parity.bgs" --input five.str | expect 'r["result"]["verdict"] == "accept"'
PYTHONPROFILEIMPORTTIME=1 choiceless-lab bgs run --program "$programs/parity.bgs" --input five.str 2> bgs-imports.txt > /dev/null
grep -qE 'choiceless_lab\.bgs\.interp\s*$' bgs-imports.txt || { echo "no import profile of bgs run:"; cat bgs-imports.txt; exit 1; }
lean bgs-imports.txt
python3 -c 'print("atoms: " + " ".join(f"a{i}" for i in range(3001)))' > many.str
timeout 30 choiceless-lab bgs run --program "$programs/parity.bgs" --input many.str | expect 'r["result"]["verdict"] == "accept" and r["result"]["peak_active"] == 3002'
printf '#steps 1\n#active 0 1\nN := 10000000\n' > literal.bgs
printf 'atoms: a\n' > one.str
timeout 10 choiceless-lab bgs run --program literal.bgs --input one.str | expect 'r["result"]["verdict"] == "bound-exceeded" and r["result"]["peak_active"] == 10000001'
printf 'atoms: a b c\n' > three.str
printf '#steps 3\n#active 10\nif Atoms then Halt := true endif\n' > guard.bgs
exits 3 guard.json choiceless-lab bgs run --program guard.bgs --input three.str
expect '"line 3" in r["error"]["message"]' < guard.json
# a non-Boolean Halt and an unbound variable: only the parser checks these
printf '#steps 3\n#active 10\nHalt := Atoms\n' > halt.bgs
exits 3 halt.json choiceless-lab bgs run --program halt.bgs --input three.str
expect '"line 3" in r["error"]["message"] and "only takes Boolean values" in r["error"]["message"]' < halt.json
printf '#steps 3\n#active 10\nOutput := x = x\n' > unbound.bgs
exits 3 unbound.json choiceless-lab bgs run --program unbound.bgs --input three.str
expect '"line 3" in r["error"]["message"] and "unbound variable \x27x\x27" in r["error"]["message"]' < unbound.json
choiceless-lab bgs run --program "$programs/doubling.bgs" --input three.str | expect 'r["result"]["verdict"] == "bound-exceeded"'
# power.bgs visits its comprehensions' indexed atoms in hash and
# address order: the result may not depend on either; each run
# has 10 s, so an interpreter slowdown fails here too
python3 -c 'import random; rng = random.Random(7); n = 24; m = [f"m{i}" for i in range(n)]; print("atoms:", *m, "d0 d1 d2"); print("rel Arc/2:", *(f"({a},{b})" for a in m for b in m if rng.random() < 0.5)); print("rel InC/1: (d0) (d2)"); print("rel DLess/2: (d0,d1) (d0,d2) (d1,d2)")' > power24.str
rename power24.str renamed24.str
same 'r["verdict"] == "accept"' '1:power24 2:power24 1:renamed24' timeout 10 choiceless-lab bgs run --program "$programs/power.bgs" --input @.str
# input relations and functions are read from the same tables as
# dynamic symbols: T at three bound variables, F as the indexed
# first conjunct of a comprehension over Atoms
python3 -c 'import random; rng = random.Random(5); u = [f"u{i}" for i in range(12)]; print("atoms:", *u); print("fun F/1:", *(f"({a})->{rng.choice(u)}" for a in u)); print("rel T/3:", *(f"({a},{b},{c})" for a in u for b in u for c in u if rng.random() < 0.05))' > inputs.str
rename inputs.str renamed-inputs.str
printf '%s\n' '#steps 3' '#active 0 2' 'if Mode = 0 then do in parallel' \
  '  do forall x in Atoms, do forall y in Atoms, do forall z in Atoms,' \
  '    if T(x, y, z) and F(x) = z then W(x, y) := z endif' \
  '  enddo enddo enddo;' '  Mode := 1' 'enddo else do in parallel' \
  '  Output := { v : v in Atoms : F(v) and T(v, v, v) } = empty' \
  '    and 0 in { 0 : x in Atoms : F(x) != x and 0 in { 0 : y in Atoms : W(x, y) = F(x) } };' \
  '  Halt := true' 'enddo endif' > inputs.bgs
same 'r["verdict"] == "accept"' '1:inputs 2:inputs 1:renamed-inputs' timeout 10 choiceless-lab bgs run --program inputs.bgs --input @.str
# identities that hold on every structure, through the forms compiled
# one way: "or" with a non-Boolean right operand, "k in" and "= k" on
# terms that are not reads, and each of Union, TheUnique, Pair and Card
python3 -c 'import random; rng = random.Random(9); u = [f"u{i}" for i in range(12)]; print("atoms:", *u); print("fun F/1:", *(f"({a})->{rng.choice(u)}" for a in u)); print("rel E/2:", *(f"({a},{b})" for a in u for b in u if rng.random() < 0.2))' > ors.str
rename ors.str renamed-ors.str
printf '%s\n' '#steps 3' '#active 0 4' '#requires card' 'if Mode = 0 then do in parallel' \
  '  do forall x in Atoms, N(x) := Card({ y : y in Atoms : E(x, y) }) enddo;' '  Mode := 1' 'enddo else do in parallel' \
  '  Output := { x : x in Atoms : not (not (E(x, F(x)) or 2) and 1 in Union(Pair(N(x), 2))' \
  '    and TheUnique(Pair(x, x)) = x and TheUnique(Pair(x, Pair(x, x))) = 0' \
  '    and (Card(Pair(x, F(x))) = 1) = (F(x) = x)' \
  '    and Card({ y : y in Atoms : E(x, y) or N(y) })' \
  '      = Card({ y : y in Atoms : (E(x, y) and N(y) in 2) or (not E(x, y) and N(y) = 1) })) } = empty;' \
  '  Halt := true' 'enddo endif' > ors.bgs
same 'r["verdict"] == "accept"' '1:ors 2:ors 1:renamed-ors' timeout 10 choiceless-lab bgs run --program ors.bgs --input @.str
# fill B over 30,000 atoms, then rewrite the one B entry at the First
# atom in each of 1,999 steps: a step visits that atom through First's
# index and writes one entry of B, so it costs the same at any size
python3 -c 'n = 30000; print("atoms:", *(f"a{i}" for i in range(n))); print("rel First/1: (a17)")' > onewrite.str
rename onewrite.str renamed-onewrite.str
printf '%s\n' '#steps 2000' '#active 2010 1' 'if Mode = 0 then do in parallel' \
  '  do forall x in Atoms, B(x) := x enddo;' '  Mode := 1' 'enddo else' \
  '  do forall x in Atoms, if First(x) then B(x) := Pair(B(x), B(x)) endif enddo' 'endif' > onewrite.bgs
same 'r["verdict"] == "bound-exceeded" and r["steps"] == 2000 and r["peak_active"] == 32001' \
  '1:onewrite 2:onewrite 1:renamed-onewrite' timeout 10 choiceless-lab bgs run --program onewrite.bgs --input @.str
# a step that gives M(x) two values at the atoms with two E-successors
# clashes and writes nothing, not B's nor Halt's valid updates: each step
# after the first clashes until the step budget; with E a function the
# same step is written and the run accepts
python3 -c 'n = 40; u = [f"u{i}" for i in range(n)]; print("atoms:", *u); print("rel E/2:", *(f"({u[i]},{u[(i + 1) % n]})" for i in range(n)), "(u3,u5) (u17,u19)")' > clash.str
python3 -c 'n = 40; u = [f"u{i}" for i in range(n)]; print("atoms:", *u); print("rel E/2:", *(f"({u[i]},{u[(i + 1) % n]})" for i in range(n)))' > noclash.str
rename clash.str renamed-clash.str
rename noclash.str renamed-noclash.str
printf '%s\n' '#steps 30' '#active 10 2' 'if Mode = 0 then do in parallel' \
  '  do forall x in Atoms, B(x) := Pair(x, x) enddo;' '  Mode := 1' 'enddo else do in parallel' \
  '  do forall x in Atoms, B(x) := x enddo;' \
  '  do forall x in Atoms, do forall y in Atoms, if E(x, y) then M(x) := y endif enddo enddo;' \
  '  Output := true;' '  Halt := true' 'enddo endif' > clash.bgs
same 'r["verdict"] == "bound-exceeded" and r["steps"] == 30 and r["peak_active"] == 82' \
  '1:clash 2:clash 1:renamed-clash' timeout 10 choiceless-lab bgs run --program clash.bgs --input @.str
same 'r["verdict"] == "accept" and r["steps"] == 2 and r["peak_active"] == 82' \
  '1:noclash 2:noclash 1:renamed-noclash' timeout 10 choiceless-lab bgs run --program clash.bgs --input @.str
# programs nested as deep as the parser admits, as forall loops and as
# conditionals that are not constant: Python allows a function 20 nested
# loops and a file 100 levels of indentation, so each step is generated
# as several functions
nested() { python3 -c 'import sys; from choiceless_lab.bgs.parser import MAX_NESTING; k = MAX_NESTING - 2; print("#steps 2\n#active 10 1\n" + sys.argv[1] * k + "Halt := true" + sys.argv[2] * k)' "$@"; }
nested 'do forall x in Atoms, ' ' enddo' > deepforall.bgs
nested 'if not Halt then ' ' endif' > deepif.bgs
for deep in deepforall deepif; do
  timeout 10 choiceless-lab bgs run --program $deep.bgs --input one.str | expect 'r["result"]["verdict"] == "reject" and r["result"]["steps"] == 1'
done
# GF(2) rows of 64 bits span three 30-bit digits of the packed matrix
choiceless-lab gen matrix --q 2 --n 64 --seed 3 --file m.mat
agree m.mat
# the same matrix with comments, a blank line, doubled spaces and its
# headers reordered: read to the same verdict
python3 -c 'import sys; l = sys.stdin.read().splitlines(); print("\n".join(["// a copy of m.mat", l[2] + "  // flag", "", l[1].replace(" ", "  ", 3), l[0], *l[3:]]))' < m.mat > m-lines.mat
agree m-lines.mat
same 'r["method"] == "power"' '1:m 1:m-lines' choiceless-lab solve det --matrix @.mat
# a GF(7) matrix laid out by hand: a leading comment, CRLF line ends,
# tabs between fields and the square header after the entries
choiceless-lab gen matrix --q 7 --n 40 --seed 3 --file m7.mat
python3 -c 'import sys; l = sys.stdin.read().splitlines(); sys.stdout.buffer.write("\r\n".join(["// m7.mat by hand", l[0], l[1], *(e.replace(" ", "\t") for e in l[3:]), l[2], ""]).encode())' < m7.mat > hand-m7.mat
same '"nonsingular" in r' '1:m7 2:m7 1:hand-m7' timeout 10 choiceless-lab solve det --matrix @.mat
# an element index carries no sign: -0 is no element of GF(3)
printf 'field 3\nrows a b\nsquare\na a -0\na b 1\nb a 1\n' > minus-zero.mat
exits 3 minus-zero.json choiceless-lab solve det --matrix minus-zero.mat
expect '"line 4" in r["error"]["message"]' < minus-zero.json
# --out on either side of the command
choiceless-lab --out a.json solve det --matrix m.mat
choiceless-lab solve det --matrix m.mat --out b.json
python3 -c 'import json, sys; a, b = (json.load(open(f))["result"] for f in sys.argv[1:]); assert a == b, (a, b)' a.json b.json
# a short report written over a long one at the same --out is cut after
# its last byte: the file reads as the report on stdout, timing aside
python3 -c 'print("atoms: a"); print("\n".join(f"rel R{i}/1: (a)" for i in range(200)))' > symbols.str
choiceless-lab validate structure --input symbols.str --out report.json
choiceless-lab validate structure --input one.str --out report.json
choiceless-lab validate structure --input one.str > stdout.json
python3 -c 'import json, sys; f, s = (json.load(open(p)) for p in sys.argv[1:]); f["invocation"]["argv"][-2:] = []; [r.pop("timing_seconds") for r in (f, s)]; assert f == s, (f, s)' report.json stdout.json
exits 0 null.json choiceless-lab solve det --matrix m.mat --out /dev/null
exits 2 nonsense.json choiceless-lab solve nonsense
expect 'r["error"]["kind"] == "usage" and "solve det" in r["error"]["message"]' < nonsense.json
for q in 3 4 9; do choiceless-lab gen matrix --q "$q" --n 8 --seed 3 --file "m$q.mat"; agree "m$q.mat"; done
# field powers that took 3 to 7 s on one list or table product per entry:
# GF(4) and GF(8) now run on GF(2), and GF(3) in byte slots
for qn in 4:40 8:30 3:40; do choiceless-lab gen matrix --q "${qn%:*}" --n "${qn#*:}" --seed 3 --file "m$qn.mat"; agree "m$qn.mat"; done
printf 'field 2\nrows a b\ncols x y\na y 1\nb x 1\nb y 1\n' > rect2.mat
printf 'field 3\nrows a b\ncols x y\na x 1\na y 2\nb x 2\nb y 1\n' > rect3.mat
for q in 2 3; do agree "rect$q.mat"; done
# |I| != |J|: no inverse, so both methods say singular
printf 'field 2\nrows a b\ncols x y z\na x 1\nb y 1\nb z 1\n' > wide2.mat
printf 'field 3\nrows a b c\ncols x y\na x 1\nb y 2\nc x 1\n' > tall3.mat
for m in wide2 tall3; do
  agree "$m.mat"
  choiceless-lab solve det --matrix "$m.mat" --method power | expect 'r["result"]["nonsingular"] is False'
done
printf 'ring Z\nrows a b c\nsquare\na a 1\na b 2\na c 3\nb a 4\nb b 5\nb c 6\nc a 1\nc b 2\nc c 3\n' > z.mat
choiceless-lab solve det --matrix z.mat --prime-divisors | expect 'r["result"]["determinant_zero"] is True'
# the installed solve det loads the linear algebra it runs, and none of
# the set-machine package, the sampler, matching, CFI or multipede modules
PYTHONPROFILEIMPORTTIME=1 choiceless-lab solve det --matrix z.mat 2> det-imports.txt > /dev/null
grep -qE 'choiceless_lab\.linalg\.matrix\s*$' det-imports.txt || { echo "no import profile of solve det:"; cat det-imports.txt; exit 1; }
if grep -E 'choiceless_lab\.(bgs(\.\w+)?|linalg\.sampling|matching|cfi|multipede)\s*$' det-imports.txt; then echo "solve det imported the modules above"; exit 1; fi
# flags are read from the command table, without argparse, with its
# usage line and messages
if grep -E '\|\s*argparse\s*$' det-imports.txt; then echo "solve det imported argparse"; exit 1; fi
lean det-imports.txt
choiceless-lab solve det --help > det-help.txt
head -n 1 det-help.txt | grep -q '^usage: choiceless-lab solve det' || { echo "solve det --help printed:"; cat det-help.txt; exit 1; }
exits 2 crt.json choiceless-lab solve det --matrix z.mat --method crt
expect 'r["error"]["message"] == "argument --method: invalid choice: '"'crt'"' (choose from '"'power', 'gauss'"')"' < crt.json
# solve matching loads neither the set-machine package nor linear algebra
PYTHONPROFILEIMPORTTIME=1 choiceless-lab solve matching --input g.str 2> matching-imports.txt > /dev/null
grep -qE 'choiceless_lab\.matching\s*$' matching-imports.txt || { echo "no import profile of solve matching:"; cat matching-imports.txt; exit 1; }
if grep -E 'choiceless_lab\.(bgs|linalg)(\.\w+)?\s*$' matching-imports.txt; then echo "solve matching imported the modules above"; exit 1; fi
lean matching-imports.txt
choiceless-lab gen matrix --n 3 --seed 1 --file zgen.mat
head -n 1 zgen.mat | grep -qx 'ring Z'
choiceless-lab solve det --matrix zgen.mat --prime-divisors | expect 'r["result"]["method"] == "crt"'
# a singular 2x2 matrix of 1000-bit entries: the verdict sieves no primes
python3 -c 'b = 2**1000 - 3; print(f"ring Z\nrows a b\nsquare\na a {b}\na b {2 * b}\nb a {b + 1}\nb b {2 * b + 2}")' > wide.mat
timeout 5 choiceless-lab solve det --matrix wide.mat | expect 'r["result"]["nonsingular"] is False'
# one digit past the --prime-divisors guard on the scan width (256)
python3 -c 'print(f"ring Z\nrows a\nsquare\na a {2**257 - 1}")' > past256.mat
exits 4 past256.json choiceless-lab solve det --matrix past256.mat --prime-divisors
# one size past the determinant's work guard at the default entry bound
# (9-bit entries admit n <= 52): refused before any product is made
choiceless-lab gen matrix --n 53 --seed 1 --file past-work.mat > /dev/null
exits 4 past-work.json timeout 5 choiceless-lab solve det --matrix past-work.mat
expect '"det.max_work" in r["error"]["message"]' < past-work.json
# and with --prime-divisors, refused before the prime sieve runs
exits 4 past-work-scan.json timeout 5 choiceless-lab solve det --matrix past-work.mat --prime-divisors
expect '"det.max_work" in r["error"]["message"]' < past-work-scan.json
exits 3 lost.json choiceless-lab --out missing/report.json solve det --matrix zgen.mat
expect '"cannot write" in r["error"]["message"]' < lost.json
printf 'atoms: a a\n' > twice.str
exits 3 twice.json choiceless-lab validate structure --input twice.str
expect 'r["error"]["kind"] == "parse"' < twice.json
choiceless-lab gen multipede --segments 40 --hyperedges 60 --seed 1 --shoe --file p.str
choiceless-lab validate multipede --input p.str | expect 'r["result"]["valid"] is True and isinstance(r["result"]["odd"], bool)'
for kind in multipede3 multipede4; do choiceless-lab iso "$kind" --a p.str --b p.str | expect 'r["result"]["isomorphic"] is True'; done
# swap IN OUT: IN with the a/b suffix of every foot name swapped, the
# shoe's included: a renaming, so isomorphic, that reverses the feet's
# name order on every segment
swap() { python3 -c 'import re, sys; print(re.sub(r"\b(s\d+)([ab])\b", lambda x: x.group(1) + "ba"[x.group(2) == "b"], sys.stdin.read()), end="")' < "$1" > "$2"; }
swap p.str q.str
# iso3 A,B: iso multipede3 on A.str and B.str, with 10 s
iso3() { timeout 10 choiceless-lab iso multipede3 --a "${1%,*}.str" --b "${1#*,}.str"; }
same 'r["isomorphic"] is True' '1:p,q 1:q,p 2:p,q 2:q,p' iso3 @
# the largest multipede the tuple guard admits, and one hyperedge more;
# the largest is decided against itself and its swapped feet in 10 s each
timeout 10 choiceless-lab gen multipede --segments 100 --hyperedges 16481 --seed 1 --shoe --file big.str | expect 'r["result"]["hyperedges"] == 16481'
swap big.str big-q.str
same 'r["isomorphic"] is True' '1:big,big 2:big,big' iso3 @
same 'r["isomorphic"] is True' '1:big,big-q 2:big,big-q' iso3 @
exits 4 past.json choiceless-lab gen multipede --segments 100 --hyperedges 16482 --seed 1 --file past.str
test ! -e past.str
# drop the positive triples on the feet s00a and s01a: several
# hyperedges break, and the violations may not follow set order
python3 -c 'import re, sys; print("".join(re.sub(r" \([^()]*\bs0[01]a\b[^()]*\)", "", l) if l.startswith("rel Positive/3:") else l for l in sys.stdin), end="")' < p.str > broken.str
same 'len(r["violations"]) > 1' '1:broken 2:broken' choiceless-lab validate multipede --input @.str
# Hyper listing each hyperedge in one ordering only: refused, not read
# as the same hyperedges
python3 -c 'import re, sys; print("".join(re.sub(r" \(([^(),]+),([^(),]+),([^(),]+)\)", lambda t: t.group() if list(t.groups()) == sorted(t.groups()) else "", l) if l.startswith("rel Hyper/3:") else l for l in sys.stdin), end="")' < p.str > one-way.str
exits 3 one-way.json choiceless-lab validate multipede --input one-way.str
expect '"Hyper must list every ordering" in r["error"]["message"]' < one-way.json
exits 3 one-way-iso.json choiceless-lab iso multipede3 --a p.str --b one-way.str
# a shoe on a segment, and on a foot of the second segment: validate
# reports the shoe's violation, and iso refuses the same file
for shoe in s0 s1a; do
  printf 'atoms: s0 s1 s0a s0b s1a s1b\nrel Segment/1: (s0) (s1)\nrel Foot/1: (s0a) (s0b) (s1a) (s1b)\nrel S/2: (s0a,s0) (s0b,s0) (s1a,s1) (s1b,s1)\nrel Hyper/3:\nrel Positive/3:\nrel Leq/2: (s0,s0) (s0,s1) (s1,s1)\nrel Shoe/1: (%s)\n' "$shoe" > "shoe-$shoe.str"
  choiceless-lab validate multipede --input "shoe-$shoe.str" | expect 'r["result"]["valid"] is False and r["result"]["odd"] is None'
  exits 3 "shoe-$shoe.json" choiceless-lab iso multipede3 --a "shoe-$shoe.str" --b "shoe-$shoe.str"
done
choiceless-lab gen cfi --m 3 --twist v1,v1 --pad --file c.str | expect 'r["result"]["twist_size"] == 1'
same 'r["class"] == 1' '1:c 2:c' choiceless-lab solve cfi-classify --input @.str
PYTHONPROFILEIMPORTTIME=1 choiceless-lab solve cfi-classify --input c.str 2> cfi-imports.txt > /dev/null
grep -qE 'choiceless_lab\.cfi\s*$' cfi-imports.txt || { echo "no import profile of solve cfi-classify:"; cat cfi-imports.txt; exit 1; }
lean cfi-imports.txt
# the padded m = 4 gadget: 65,596 atoms on one line
choiceless-lab gen cfi --m 4 --twist odd --pad --file c4.str > /dev/null
timeout 5 choiceless-lab solve cfi-classify --input c4.str | expect 'r["result"]["class"] == 1'
# gadgets past the size guards are refused before anything is built
exits 4 cfi20.json timeout 5 choiceless-lab gen cfi --m 20 --twist even --file cfi20.str
expect '"structure.max_m" in r["error"]["message"]' < cfi20.json
exits 4 cfi2000.json timeout 5 choiceless-lab gen cfi --m 2000 --twist even --pad --file cfi2000.str
expect '"pad.max_m" in r["error"]["message"]' < cfi2000.json
test ! -e cfi20.str && test ! -e cfi2000.str
# a function of huge arity, and a file that is not UTF-8
printf 'atoms: a b c\nfun F/3000000:\n' > huge.str
printf 'atoms: a \377 b\n' > latin.str
for f in huge latin; do exits 3 "$f.json" timeout 5 choiceless-lab validate structure --input "$f.str"; done
# 80,200 Leq pairs, read from their degree counts
choiceless-lab gen multipede --segments 400 --hyperedges 600 --seed 1 --shoe --file long.str
timeout 10 choiceless-lab iso multipede3 --a long.str --b long.str | expect 'r["result"]["isomorphic"] is True'
# one Leq pair (s,t), s != t, reversed: no longer a linear order
python3 -c 'import re, sys; print("".join(re.sub(r"\(([^(),]+),(?!\1\))([^(),]+)\)", r"(\2,\1)", l, count=1) if l.startswith("rel Leq/2:") else l for l in sys.stdin), end="")' < long.str > reversed.str
exits 3 reversed.json choiceless-lab validate multipede --input reversed.str
# one Pre pair whose reverse is absent, reversed: no longer a pre-order
choiceless-lab gen cfi --m 3 --twist odd --file c3.str
python3 -c 'import re, sys; lines = sys.stdin.read().split("\n"); i = next(i for i, l in enumerate(lines) if l.startswith("rel Pre/2:")); pairs = re.findall(r"\(([^(),]+),([^(),]+)\)", lines[i]); x, y = next(p for p in pairs if p[::-1] not in pairs); lines[i] = lines[i].replace(f"({x},{y})", f"({y},{x})"); print("\n".join(lines), end="")' < c3.str > c3r.str
choiceless-lab solve cfi-classify --input c3r.str | expect 'r["result"]["class"] == "not-CFI"'
# the odd gadget and its copy with every atom renamed are
# isomorphic; the even gadget is not
rename c3.str c3z.str
choiceless-lab gen cfi --m 3 --twist even --file e3.str > /dev/null
choiceless-lab iso cfi --a c3.str --b c3z.str | expect 'r["result"]["isomorphic"] is True'
choiceless-lab iso cfi --a c3z.str --b e3.str | expect 'r["result"]["isomorphic"] is False'
# an arity of 5,000 digits, and a field order of two 30-bit primes
python3 -c 'print("atoms: a"); print("rel R/" + "9" * 5000 + ":")' > arity.str
exits 3 arity.json choiceless-lab validate structure --input arity.str
printf 'field 1000000016000000063\nrows a\nsquare\na a 5\n' > semiprime.mat
exits 3 semiprime.json timeout 5 choiceless-lab solve det --matrix semiprime.mat
exits 3 neg.json choiceless-lab gen matrix --n -2 --seed 1 --file neg.mat
test ! -e neg.mat
# the largest matrix the entry guard admits, and one row and column more
timeout 10 choiceless-lab gen matrix --n 800 --seed 1 --file big.mat | expect 'r["result"]["n"] == 800'
exits 4 past-matrix.json timeout 5 choiceless-lab gen matrix --n 801 --seed 1 --file past.mat
test ! -e past.mat
# n = 800 with a four-digit --max-abs is past the digit guard, and a
# det-frequency matrix one row and column past the entry guard is refused
exits 4 past-digits.json timeout 5 choiceless-lab gen matrix --n 800 --max-abs 1000 --seed 1 --file past.mat
test ! -e past.mat
exits 4 past-frequency.json timeout 5 choiceless-lab experiment det-frequency --q 3 --n 801 --trials 1 --seed 1
# 2000 x 2000 at density 0.5 drew and wrote for 7.8 s; one atom past the
# bound on atoms plus expected edges is refused too, though it draws nothing
exits 4 past-bipartite.json timeout 5 choiceless-lab gen bipartite --na 2000 --nb 2000 --density 0.5 --seed 1 --file past.str
test ! -e past.str
exits 4 past-atoms.json timeout 5 choiceless-lab gen bipartite --na 150001 --nb 0 --seed 1 --file past.str
test ! -e past.str
