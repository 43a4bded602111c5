#!/usr/bin/env bash
# Experiments gate: every number EXPERIMENTS.md claims as measured, and
# every headline number of the README, is read off the results file its
# section names, so a regenerated figure cannot leave a stale number
# behind in the prose.
#
# A section (`## ` heading) names its file in the paragraph from
# `Source:` on — `results/<name>.txt`, or `results/<ablation>.txt` with a
# placeholder, which means the file named in backticks in each table
# row's first cell. A list item (`* ` or `- ` and its continuation
# lines) that names a `results/<name>.txt` is checked against that file
# instead. A file name followed by `, line \`text\`` (the name in
# backticks too, on the same line) names the results line a claim
# quotes: its numbers are then checked against the first line of the
# file containing `text`, not the whole file; `, line \`text\` after
# \`anchor\`` names the first line containing `text` below the first
# line containing `anchor` (a table printed once per scale, say). A
# table with a column headed `source` names each row's results line in
# that column; the row's claims are checked against it, and a row that
# names none fails. Its claims are
#   * every cell of a table column headed `measured`;
#   * in a table with no `measured` column, in a section with one
#     results file or with a `source` column, every cell after the row
#     label that is not under a column headed `paper` or `source`; and
#   * every bold span (`**…**`) outside such a cell.
# Fenced code blocks are skipped. A claim is split into clauses at `;`. Each number in a clause (commas
# between digits are thousands separators; code spans are skipped) must
# occur as a number in the file. A derived clause states its formula
# inline, `derived = formula`: the numbers left of the `=` are what it
# derives, and only the formula's operands, right of it, must occur in
# the file; a formula with no numeric operand fails. Numbers are
# compared by value (0.50 matches 0.5).
#
# Usage: scripts/check_experiments.sh [FILE...]
#        (default EXPERIMENTS.md README.md)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- EXPERIMENTS.md README.md

# POSIX awk only (runs under mawk on CI): no 3-arg match, no length(array).
awk '
function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }

# The numbers of `s`, space-separated, by value. Code spans and digits
# that end a word (`p10`, `fig12`) are names, not numbers.
function numbers(s,    out, tok, named) {
    gsub(/`[^`]*`/, " ", s)
    while (match(s, /[0-9]+(,[0-9][0-9][0-9])*(\.[0-9]+)?/)) {
        tok = substr(s, RSTART, RLENGTH)
        named = RSTART > 1 && substr(s, RSTART - 1, 1) ~ /[A-Za-z_]/
        s = substr(s, RSTART + RLENGTH)
        if (named) continue
        gsub(/,/, "", tok)
        out = out " " (tok + 0)
    }
    return out
}

# The results source `s` names: its first `results/<name>.txt`, and
# when a `, line \`text\`` follows it, the text of the line it quotes
# and the anchor it is quoted below (maybe ""), as
# `file SUBSEP text SUBSEP anchor`; "" when it names none.
function source(s,    f, rest, text, anchor) {
    if (!match(s, /results\/[A-Za-z0-9_]+\.txt/)) return ""
    f = substr(s, RSTART, RLENGTH)
    rest = substr(s, RSTART + RLENGTH)
    if (match(rest, /^`?, line `[^`]+`/)) {
        text = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        sub(/^`?, line `/, "", text)
        sub(/`$/, "", text)
        anchor = ""
        if (match(rest, /^ after `[^`]+`/))
            anchor = substr(rest, RSTART + 8, RLENGTH - 9)
        f = f SUBSEP text SUBSEP anchor
    }
    return f
}

# A source as the reader wrote it.
function shown(f,    p) {
    if (split(f, p, SUBSEP) < 3) return f
    return p[1] ", line `" p[2] "`" (p[3] != "" ? " after `" p[3] "`" : "")
}

# Loads the numbers of source `f` into have[f, value] once: every line
# of its file, or only the first line containing its quoted text (below
# the first line containing its anchor, when it names one).
function load(f,    p, file, text, armed, line, n, i, v) {
    if (f in loaded) return loaded[f]
    file = f
    text = ""
    armed = 1
    if (split(f, p, SUBSEP) == 3) {
        file = p[1]
        text = p[2]
        armed = p[3] == ""
    }
    loaded[f] = 0
    while ((getline line < file) > 0) {
        if (!armed) {
            armed = index(line, p[3]) > 0
            continue
        }
        if (text != "" && (loaded[f] || !index(line, text))) continue
        loaded[f] = 1
        n = split(numbers(line), v, " ")
        for (i = 1; i <= n; i++) have[f, v[i]] = 1
    }
    close(file)
    return loaded[f]
}

function fail(msg) { printf("%s: %s\n  %s\n", title, msg, where); bad = 1 }

# Checks one claim against results file `f`.
function claim(text, f,    c, nc, i, eq, rhs, n, v, j) {
    nc = split(text, c, ";")
    for (i = 1; i <= nc; i++) {
        eq = index(c[i], "=")
        rhs = eq ? substr(c[i], eq + 1) : c[i]
        n = split(numbers(rhs), v, " ")
        if (n == 0 && eq && numbers(substr(c[i], 1, eq - 1)) != "") {
            fail("a derived number whose formula has no operand"); continue
        }
        if (n == 0) continue
        if (f == "") { fail("a number in a section with no Source: results file"); return }
        if (!load(f)) { fail("no results file or line " shown(f)); return }
        for (j = 1; j <= n; j++)
            if (!((f, v[j]) in have))
                fail(v[j] " is not in " shown(f) (eq ? " (formula operand)" : ""))
    }
}

# The bold spans of `s`, checked against `f`.
function bold(s, f,    span) {
    while (match(s, /\*\*[^*]+\*\*/)) {
        span = substr(s, RSTART + 2, RLENGTH - 4)
        s = substr(s, RSTART + RLENGTH)
        claim(span, f)
    }
}

# The results file each line of an item names, in item[], for the lines
# of list items that name one.
function items(    i, k, end, m) {
    for (i = 1; i <= n; i++) item[i] = ""
    for (i = 1; i <= n; i++) {
        if (buf[i] !~ /^[*-] /) continue
        for (end = i; end < n && buf[end + 1] != "" && buf[end + 1] !~ /^[*-] |^\|/; end++) ;
        m = ""
        for (k = i; k <= end && m == ""; k++)
            m = source(buf[k])
        for (k = i; k <= end; k++) item[k] = m
        i = end
    }
}

function flush(    i, src, per_row, line, cells, nc, col, paper, j, f, lf, name, src_col, rf) {
    src = ""
    for (i = 1; i <= n; i++) {
        if (index(buf[i], "Source:")) {
            src = substr(buf[i], index(buf[i], "Source:"))
            for (j = i + 1; j <= n && buf[j] != ""; j++) src = src " " buf[j]
            break
        }
    }
    per_row = (src ~ /results\/<[^>]*>\.txt/)
    f = ""
    if (!per_row)
        f = source(src)
    items()
    col = 0
    for (i = 1; i <= n; i++) {
        line = buf[i]
        where = line
        if (line ~ /^\|/) {
            nc = split(line, cells, "|")
            if (i < n && buf[i + 1] ~ /^\|[-| :]+\|$/) {
                col = 0
                src_col = 0
                split("", paper)
                for (j = 2; j < nc; j++) {
                    if (trim(cells[j]) == "measured") col = j
                    if (trim(cells[j]) == "paper") paper[j] = 1
                    if (trim(cells[j]) == "source") src_col = j
                }
                # No `measured` column: every value cell is a claim.
                if (col == 0 && (src_col || (!per_row && f != ""))) col = -1
                continue
            }
            if (line ~ /^\|[-| :]+\|$/) continue
            if (per_row) {
                name = ""
                if (match(cells[2], /`[A-Za-z0-9_]+`/))
                    name = "results/" substr(cells[2], RSTART + 1, RLENGTH - 2) ".txt"
                f = name
            }
            rf = f
            if (src_col) {
                rf = source(cells[src_col])
                if (rf == "") { fail("a row whose source names no results file"); continue }
            }
            for (j = 2; j < nc; j++) {
                if (j == src_col) continue
                if (j == col || (col < 0 && j > 2 && !(j in paper))) claim(cells[j], rf)
                else bold(cells[j], rf)
            }
            continue
        }
        col = 0
        src_col = 0
        lf = item[i] != "" ? item[i] : f
        bold(line, lf)
    }
    n = 0
}

FNR == 1 { flush(); fence = 0; title = FILENAME }
/^```/ { fence = !fence; next }
fence { next }
/^## / { flush(); title = FILENAME ": " $0 }
{ buf[++n] = $0 }
END {
    flush()
    if (bad) exit 1
    print "every measured number is in its results file"
}
' "$@"
