#!/usr/bin/env python3
"""Generate lib/programs/suite.ml.

Each benchmark below is written in the compiler's C subset (which is plain
C89), compiled with the system gcc (-funsigned-char to match the simulator's
zero-extending byte loads), run on its input, and the captured stdout is
embedded as the expected output. The resulting OCaml module carries
(name, description, source, input, expected_output) for the 14 programs of
the paper's Table 3 plus 3 control-flow-heavy additions (fannkuch, lexer,
rdparse) grown for the translation-validation corpus and 2 arithmetic-heavy
shootout-style kernels (nbody, spectral) in pure integer / fixed-point form
(the compiler has no floating point).

The additions are also emitted as examples/c/<name>.c with their bundled
input (<name>.input) and gcc-captured golden output (<name>.expected), so
the CLI, compile --verify-passes and certify CI legs exercise them as
source files.
"""

import subprocess, tempfile, os, sys

HELPERS = {
    "putstr": r"""
void putstr(char *s) {
  int i;
  i = 0;
  while (s[i] != 0) { putchar(s[i]); i = i + 1; }
}
""",
    "putnum": r"""
void putnum(int n) {
  char buf[12];
  int i;
  if (n < 0) { putchar('-'); n = -n; }
  i = 0;
  do { buf[i] = '0' + n % 10; n = n / 10; i = i + 1; } while (n > 0);
  while (i > 0) { i = i - 1; putchar(buf[i]); }
}
""",
    "putoct": r"""
void putoct(int n, int w) {
  char buf[12];
  int i;
  i = 0;
  do { buf[i] = '0' + (n & 7); n = n >> 3; i = i + 1; } while (n > 0);
  while (i < w) { buf[i] = '0'; i = i + 1; }
  while (i > 0) { i = i - 1; putchar(buf[i]); }
}
""",
    "readnum": r"""
int readnum() {
  int c, n;
  n = 0;
  c = getchar();
  while (c == ' ' || c == '\n') c = getchar();
  while (c >= '0' && c <= '9') { n = n * 10 + (c - '0'); c = getchar(); }
  return n;
}
""",
}

# ---------------------------------------------------------------- wc
WC = r"""
int main() {
  int c, lines, words, chars, in_word;
  lines = 0; words = 0; chars = 0; in_word = 0;
  while ((c = getchar()) != -1) {
    chars = chars + 1;
    if (c == '\n') lines = lines + 1;
    if (c == ' ' || c == '\n' || c == '\t') in_word = 0;
    else if (in_word == 0) { in_word = 1; words = words + 1; }
  }
  putnum(lines); putchar(' ');
  putnum(words); putchar(' ');
  putnum(chars); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- bubblesort
BUBBLE = r"""
int a[100];

int main() {
  int i, j, t, n, seed, sum;
  n = 100; seed = 12345;
  for (i = 0; i < n; i++) {
    seed = (seed * 1103 + 12849) % 65536;
    a[i] = seed % 1000;
  }
  for (i = 0; i < n - 1; i++)
    for (j = 0; j < n - 1 - i; j++)
      if (a[j] > a[j + 1]) { t = a[j]; a[j] = a[j + 1]; a[j + 1] = t; }
  sum = 0;
  for (i = 0; i < n; i++) sum = sum + a[i] * (i + 1);
  putnum(sum); putchar('\n');
  for (i = 0; i < 10; i++) { putnum(a[i * 10]); putchar(' '); }
  putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- matmult
MATMULT = r"""
int a[14][14], b[14][14], c[14][14];

int main() {
  int i, j, k, n, sum;
  n = 14;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++) {
      a[i][j] = (i * 3 + j * 7) % 11 - 5;
      b[i][j] = (i * 5 + j * 2) % 13 - 6;
    }
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++) {
      sum = 0;
      for (k = 0; k < n; k++) sum = sum + a[i][k] * b[k][j];
      c[i][j] = sum;
    }
  sum = 0;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++) sum = sum + c[i][j] * (i + 2 * j + 1);
  putnum(sum); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- sieve
SIEVE = r"""
char flags[8191];

int main() {
  int i, k, count, iter;
  count = 0;
  for (iter = 0; iter < 3; iter++) {
    count = 0;
    for (i = 0; i <= 8190; i++) flags[i] = 1;
    for (i = 2; i <= 8190; i++) {
      if (flags[i]) {
        k = i + i;
        while (k <= 8190) { flags[k] = 0; k = k + i; }
        count = count + 1;
      }
    }
  }
  putnum(count); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- queens
QUEENS = r"""
int cols[8], d1[15], d2[15], count;

void place(int row) {
  int c;
  c = 0;
  while (c < 8) {
    if (cols[c] == 0 && d1[row + c] == 0 && d2[row - c + 7] == 0) {
      if (row == 7) count = count + 1;
      else {
        cols[c] = 1; d1[row + c] = 1; d2[row - c + 7] = 1;
        place(row + 1);
        cols[c] = 0; d1[row + c] = 0; d2[row - c + 7] = 0;
      }
    }
    c = c + 1;
  }
}

int main() {
  count = 0;
  place(0);
  putnum(count); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- quicksort
QUICKSORT = r"""
int a[200], stk[256];

int main() {
  int n, i, j, seed, sp, lo, hi, t, x, sum;
  n = 200; seed = 42;
  for (i = 0; i < n; i++) {
    seed = (seed * 3421 + 5443) % 32768;
    a[i] = seed;
  }
  sp = 0;
  stk[sp] = 0; stk[sp + 1] = n - 1; sp = sp + 2;
  while (sp > 0) {
    sp = sp - 2;
    lo = stk[sp]; hi = stk[sp + 1];
    if (lo >= hi) continue;
    x = a[(lo + hi) / 2];
    i = lo; j = hi;
    while (i <= j) {
      while (a[i] < x) i = i + 1;
      while (a[j] > x) j = j - 1;
      if (i <= j) {
        t = a[i]; a[i] = a[j]; a[j] = t;
        i = i + 1; j = j - 1;
      }
    }
    stk[sp] = lo; stk[sp + 1] = j; sp = sp + 2;
    stk[sp] = i; stk[sp + 1] = hi; sp = sp + 2;
  }
  sum = 0;
  for (i = 0; i < n; i++) sum = sum + a[i] * (i + 1);
  putnum(sum); putchar('\n');
  for (i = 0; i < 8; i++) { putnum(a[i * 25]); putchar(' '); }
  putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- banner
# 5x5 font packed into one int per letter, row-major, bit 24 = top-left.
FONT5 = {
 'A':["01110","10001","11111","10001","10001"],
 'B':["11110","10001","11110","10001","11110"],
 'C':["01111","10000","10000","10000","01111"],
 'D':["11110","10001","10001","10001","11110"],
 'E':["11111","10000","11110","10000","11111"],
 'F':["11111","10000","11110","10000","10000"],
 'G':["01111","10000","10011","10001","01111"],
 'H':["10001","10001","11111","10001","10001"],
 'I':["11111","00100","00100","00100","11111"],
 'J':["00111","00010","00010","10010","01100"],
 'K':["10001","10010","11100","10010","10001"],
 'L':["10000","10000","10000","10000","11111"],
 'M':["10001","11011","10101","10001","10001"],
 'N':["10001","11001","10101","10011","10001"],
 'O':["01110","10001","10001","10001","01110"],
 'P':["11110","10001","11110","10000","10000"],
 'Q':["01110","10001","10101","10010","01101"],
 'R':["11110","10001","11110","10010","10001"],
 'S':["01111","10000","01110","00001","11110"],
 'T':["11111","00100","00100","00100","00100"],
 'U':["10001","10001","10001","10001","01110"],
 'V':["10001","10001","10001","01010","00100"],
 'W':["10001","10001","10101","11011","10001"],
 'X':["10001","01010","00100","01010","10001"],
 'Y':["10001","01010","00100","00100","00100"],
 'Z':["11111","00010","00100","01000","11111"],
}
def font_table():
    vals = []
    for ch in sorted(FONT5):
        bits = "".join(FONT5[ch])
        vals.append(str(int(bits, 2)))
    return ", ".join(vals)

BANNER = r"""
int font[26] = { %s };

int main() {
  int row, col, c, i, n, mask;
  char word[16];
  n = 0;
  while ((c = getchar()) != -1 && c != '\n' && n < 15) {
    word[n] = c;
    n = n + 1;
  }
  word[n] = 0;
  for (row = 0; row < 5; row++) {
    for (i = 0; i < n; i++) {
      c = word[i];
      if (c >= 'A' && c <= 'Z') {
        mask = font[c - 'A'];
        for (col = 0; col < 5; col++) {
          if (mask & (1 << (24 - (row * 5 + col)))) putchar('#');
          else putchar(' ');
        }
      } else {
        for (col = 0; col < 5; col++) putchar(' ');
      }
      putchar(' ');
    }
    putchar('\n');
  }
  return 0;
}
""" % font_table()

# ---------------------------------------------------------------- cal
CAL = r"""
int days_in(int m, int y) {
  int d;
  if (m == 2) {
    if ((y % 4 == 0 && y % 100 != 0) || y % 400 == 0) d = 29;
    else d = 28;
  }
  else if (m == 4 || m == 6 || m == 9 || m == 11) d = 30;
  else d = 31;
  return d;
}

/* Day of week of the first of the month; 0 = Sunday (Zeller). */
int first_weekday(int m, int y) {
  int k, j, h;
  if (m < 3) { m = m + 12; y = y - 1; }
  k = y % 100;
  j = y / 100;
  h = (1 + 13 * (m + 1) / 5 + k + k / 4 + j / 4 + 5 * j) % 7;
  /* Zeller: 0 = Saturday; rotate so 0 = Sunday. */
  return (h + 6) % 7;
}

char month_names[12][10];

void copyname(int m, char *s) {
  int i;
  i = 0;
  while (s[i] != 0) { month_names[m][i] = s[i]; i = i + 1; }
  month_names[m][i] = 0;
}

void setup_names() {
  copyname(0, "January");
  copyname(1, "February");
  copyname(2, "March");
  copyname(3, "April");
  copyname(4, "May");
  copyname(5, "June");
  copyname(6, "July");
  copyname(7, "August");
  copyname(8, "September");
  copyname(9, "October");
  copyname(10, "November");
  copyname(11, "December");
}

int name_len(int m) {
  int i;
  i = 0;
  while (month_names[m][i] != 0) i = i + 1;
  return i;
}

/* Print one row of three month titles, centered over 20 columns. */
void print_titles(int row) {
  int m, i, pad, len;
  for (m = row * 3; m < row * 3 + 3; m++) {
    len = name_len(m);
    pad = (20 - len) / 2;
    for (i = 0; i < pad; i++) putchar(' ');
    putstr(month_names[m]);
    for (i = 0; i < 20 - pad - len; i++) putchar(' ');
    if (m % 3 != 2) putchar(' ');
  }
  putchar('\n');
}

int main() {
  int y, row, m, w, n, day, col, week, d;
  int start[3], total[3], done;
  y = readnum();
  setup_names();
  for (row = 0; row < 4; row++) {
    print_titles(row);
    for (m = 0; m < 3; m++) {
      putstr("Su Mo Tu We Th Fr Sa");
      if (m != 2) putchar(' ');
    }
    putchar('\n');
    for (m = 0; m < 3; m++) {
      start[m] = first_weekday(row * 3 + m + 1, y);
      total[m] = days_in(row * 3 + m + 1, y);
    }
    for (week = 0; week < 6; week++) {
      done = 1;
      for (m = 0; m < 3; m++) {
        for (col = 0; col < 7; col++) {
          day = week * 7 + col - start[m] + 1;
          if (day >= 1 && day <= total[m]) {
            if (day < 10) putchar(' ');
            putnum(day);
            done = 0;
          }
          else { putchar(' '); putchar(' '); }
          if (col != 6) putchar(' ');
        }
        if (m != 2) putchar(' ');
      }
      putchar('\n');
      if (done && week > 3) week = 6;
    }
    putchar('\n');
  }
  return 0;
}
"""

# ---------------------------------------------------------------- od
OD = r"""
int main() {
  int c, off, col;
  off = 0; col = 0;
  while ((c = getchar()) != -1) {
    if (col == 0) { putoct(off, 7); }
    putchar(' ');
    putoct(c, 3);
    col = col + 1;
    off = off + 1;
    if (col == 16) { putchar('\n'); col = 0; }
  }
  if (col != 0) putchar('\n');
  putoct(off, 7); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- grep
GREP = r"""
char pat[128], line[256];

/* Length of the pattern element starting at p: a literal, an escaped
   character, '.', or a [...] class. */
int elem_len(char *p) {
  int i;
  if (p[0] == '\\' && p[1] != 0) return 2;
  if (p[0] != '[') return 1;
  i = 1;
  if (p[i] == '^') i = i + 1;
  while (p[i] != 0 && p[i] != ']') i = i + 1;
  if (p[i] == ']') i = i + 1;
  return i;
}

/* Does text character c match the single pattern element at p? */
int matchelem(char *p, int c) {
  int i, neg, ok, lo, hi;
  if (c == 0) return 0;
  if (p[0] == '\\') return p[1] == c;
  if (p[0] == '.') return 1;
  if (p[0] != '[') return p[0] == c;
  i = 1; neg = 0; ok = 0;
  if (p[i] == '^') { neg = 1; i = i + 1; }
  while (p[i] != 0 && p[i] != ']') {
    if (p[i + 1] == '-' && p[i + 2] != 0 && p[i + 2] != ']') {
      lo = p[i]; hi = p[i + 2];
      if (c >= lo && c <= hi) ok = 1;
      i = i + 3;
    } else {
      if (p[i] == c) ok = 1;
      i = i + 1;
    }
  }
  if (neg) return ok == 0;
  return ok;
}

int matchstar(char *e, char *p, char *t) {
  do {
    if (matchhere(p, t)) return 1;
  } while (matchelem(e, *t++));
  return 0;
}

int matchplus(char *e, char *p, char *t) {
  while (matchelem(e, *t)) {
    t = t + 1;
    if (matchhere(p, t)) return 1;
  }
  return 0;
}

int matchhere(char *p, char *t) {
  int n;
  if (p[0] == 0) return 1;
  if (p[0] == '$' && p[1] == 0) return t[0] == 0;
  n = elem_len(p);
  if (p[n] == '*') return matchstar(p, p + n + 1, t);
  if (p[n] == '+') return matchplus(p, p + n + 1, t);
  if (matchelem(p, t[0])) return matchhere(p + n, t + 1);
  return 0;
}

int match(char *p, char *t) {
  if (p[0] == '^') return matchhere(p + 1, t);
  do {
    if (matchhere(p, t)) return 1;
  } while (*t++ != 0);
  return 0;
}

int main() {
  int c, i, n, lineno;
  i = 0;
  while ((c = getchar()) != -1 && c != '\n') {
    if (i < 127) { pat[i] = c; i = i + 1; }
  }
  pat[i] = 0;
  n = 0;
  lineno = 0;
  c = 0;
  while (c != -1) {
    i = 0;
    while ((c = getchar()) != -1 && c != '\n') {
      if (i < 255) { line[i] = c; i = i + 1; }
    }
    line[i] = 0;
    if (i > 0 || c == '\n') {
      lineno = lineno + 1;
      if (match(pat, line)) {
        putnum(lineno); putchar(':');
        putstr(line); putchar('\n');
        n = n + 1;
      }
    }
  }
  putnum(n); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- sort
SORT = r"""
char lines[48][32];
char temp[32];

int mystrcmp(char *a, char *b) {
  int i;
  i = 0;
  while (a[i] != 0 && a[i] == b[i]) i = i + 1;
  return a[i] - b[i];
}

void copystr(char *d, char *s) {
  int i;
  i = 0;
  do { d[i] = s[i]; i = i + 1; } while (s[i - 1] != 0);
}

int main() {
  int n, i, j, c, k;
  n = 0;
  c = 0;
  while (c != -1 && n < 48) {
    i = 0;
    c = getchar();
    if (c == -1) break;
    while (c != -1 && c != '\n') {
      if (i < 31) { lines[n][i] = c; i = i + 1; }
      c = getchar();
    }
    lines[n][i] = 0;
    n = n + 1;
  }
  /* insertion sort */
  for (i = 1; i < n; i++) {
    copystr(temp, lines[i]);
    j = i - 1;
    while (j >= 0 && mystrcmp(lines[j], temp) > 0) {
      copystr(lines[j + 1], lines[j]);
      j = j - 1;
    }
    copystr(lines[j + 1], temp);
  }
  for (k = 0; k < n; k++) { putstr(lines[k]); putchar('\n'); }
  return 0;
}
"""

# ---------------------------------------------------------------- deroff
DEROFF = r"""
char line[256];

/* Print text with nroff escapes removed: \fX and \f(XX fonts, \sN size
   changes, \*x and \*(xx strings, \(xx specials, \- and \\ literals. */
void emit(char *s) {
  int i;
  i = 0;
  while (s[i] != 0) {
    if (s[i] == '\\') {
      i = i + 1;
      if (s[i] == 0) return;
      if (s[i] == 'f') { i = i + 1; if (s[i] == '(') i = i + 2; }
      else if (s[i] == 's') { i = i + 1; if (s[i] == '+' || s[i] == '-') i = i + 1; }
      else if (s[i] == '*') { i = i + 1; if (s[i] == '(') i = i + 2; }
      else if (s[i] == '(') { i = i + 2; }
      else if (s[i] == '-') putchar('-');
      else putchar(s[i]);
      if (s[i] == 0) return;
      i = i + 1;
    } else {
      putchar(s[i]);
      i = i + 1;
    }
  }
}

/* Read a line into the global buffer; returns -1 at end of input. *
 * The trailing newline is consumed and not stored.                */
int readline() {
  int c, i;
  i = 0;
  c = getchar();
  if (c == -1) { line[0] = 0; return -1; }
  while (c != -1 && c != '\n') {
    if (i < 255) { line[i] = c; i = i + 1; }
    c = getchar();
  }
  line[i] = 0;
  return i;
}

int main() {
  int n, i;
  for (;;) {
    n = readline();
    if (n < 0) break;
    if (line[0] == '.') {
      /* macros whose arguments are kept: .SH .TH .B .I */
      if ((line[1] == 'S' && line[2] == 'H') || (line[1] == 'T' && line[2] == 'H')
          || ((line[1] == 'B' || line[1] == 'I')
              && (line[2] == ' ' || line[2] == 0))) {
        i = 1;
        while (line[i] != 0 && line[i] != ' ') i = i + 1;
        while (line[i] == ' ') i = i + 1;
        if (line[i] != 0) { emit(line + i); putchar('\n'); }
      }
      else if (line[1] == 'i' && line[2] == 'g') {
        /* .ig: ignore everything until a line starting with .. */
        for (;;) {
          n = readline();
          if (n < 0) break;
          if (line[0] == '.' && line[1] == '.') break;
        }
      }
      /* all other requests are dropped */
    } else {
      emit(line);
      putchar('\n');
    }
  }
  return 0;
}
"""

# ---------------------------------------------------------------- compact
COMPACT = r"""
char buf[8192];
char outbits[8192];
char decoded[8192];
int freq[256];
int weight[512], left[512], right[512], parent[512], active[512];
int codelen[256];
int lencount[32], firstcode[32], offset[32];
int symtab[256];
int outpos;

/* Append the canonical code of one symbol to the bit stream. */
void putbits(int code, int len) {
  int k;
  for (k = len - 1; k >= 0; k--) {
    if (code & (1 << k))
      outbits[outpos / 8] = outbits[outpos / 8] | (1 << (7 - outpos % 8));
    outpos = outpos + 1;
  }
}

int main() {
  int n, c, i, j, nodes, m1, m2, w1, w2, total, sym, len, p;
  int nsyms, maxlen, value, pos, k, bad;
  n = 0;
  while ((c = getchar()) != -1 && n < 8192) {
    buf[n] = c;
    n = n + 1;
  }
  for (i = 0; i < n; i++) freq[buf[i]] = freq[buf[i]] + 1;
  /* leaves */
  nodes = 0;
  for (i = 0; i < 256; i++) {
    if (freq[i] > 0) {
      weight[nodes] = freq[i];
      left[nodes] = -1; right[nodes] = -1; parent[nodes] = -1;
      active[nodes] = 1;
      codelen[i] = nodes;  /* leaf index for symbol, replaced below */
      nodes = nodes + 1;
    } else codelen[i] = -1;
  }
  nsyms = nodes;
  /* build the tree: repeatedly merge the two lightest active nodes */
  j = nodes;
  while (j > 1) {
    m1 = -1; m2 = -1; w1 = 0x7fffffff; w2 = 0x7fffffff;
    for (i = 0; i < nodes; i++) {
      if (active[i]) {
        if (weight[i] < w1) { m2 = m1; w2 = w1; m1 = i; w1 = weight[i]; }
        else if (weight[i] < w2) { m2 = i; w2 = weight[i]; }
      }
    }
    if (m2 < 0) break;
    weight[nodes] = w1 + w2;
    left[nodes] = m1; right[nodes] = m2; parent[nodes] = -1;
    active[nodes] = 1;
    active[m1] = 0; active[m2] = 0;
    parent[m1] = nodes; parent[m2] = nodes;
    nodes = nodes + 1;
    j = j - 1;
  }
  /* code length of each symbol = depth of its leaf */
  total = 0;
  maxlen = 0;
  for (sym = 0; sym < 256; sym++) {
    if (codelen[sym] >= 0) {
      len = 0;
      p = codelen[sym];
      while (parent[p] >= 0) { len = len + 1; p = parent[p]; }
      if (len == 0) len = 1;  /* single-symbol input */
      codelen[sym] = len;
      if (len > maxlen) maxlen = len;
      total = total + len * freq[sym];
    }
  }
  /* canonical codes: count per length, then first code per length */
  for (sym = 0; sym < 256; sym++)
    if (codelen[sym] > 0) lencount[codelen[sym]] = lencount[codelen[sym]] + 1;
  firstcode[0] = 0;
  offset[0] = 0;
  j = 0;
  for (len = 1; len <= maxlen; len++) {
    firstcode[len] = (firstcode[len - 1] + lencount[len - 1]) * 2;
    offset[len] = j;
    j = j + lencount[len];
  }
  /* symbol table ordered by (length, symbol) */
  j = 0;
  for (len = 1; len <= maxlen; len++)
    for (sym = 0; sym < 256; sym++)
      if (codelen[sym] == len) { symtab[j] = sym; j = j + 1; }
  /* encode */
  outpos = 0;
  for (i = 0; i < n; i++) {
    sym = buf[i];
    len = codelen[sym];
    /* the canonical code of sym: firstcode[len] + rank within length */
    value = 0;
    for (k = offset[len]; symtab[k] != sym; k++) value = value + 1;
    putbits(firstcode[len] + value, len);
  }
  /* decode and verify the round trip */
  pos = 0;
  for (i = 0; i < n; i++) {
    value = 0;
    len = 0;
    for (;;) {
      value = value * 2 + ((outbits[pos / 8] >> (7 - pos % 8)) & 1);
      pos = pos + 1;
      len = len + 1;
      if (len > maxlen) break;
      if (lencount[len] > 0 && value >= firstcode[len]
          && value - firstcode[len] < lencount[len]) {
        decoded[i] = symtab[offset[len] + value - firstcode[len]];
        break;
      }
    }
  }
  bad = 0;
  for (i = 0; i < n; i++)
    if (decoded[i] != buf[i]) bad = bad + 1;
  putnum(n * 8); putchar(' ');
  putnum(total); putchar(' ');
  putnum(total * 100 / (n * 8)); putchar(' ');
  putnum(nsyms); putchar(' ');
  if (bad == 0) { putchar('O'); putchar('K'); }
  else { putchar('B'); putchar('A'); putchar('D'); putnum(bad); }
  putchar('\n');
  /* code lengths, as before */
  for (sym = 0; sym < 256; sym++) {
    if (codelen[sym] > 0 && freq[sym] > 0) {
      putchar(sym);
      putchar(':');
      putnum(codelen[sym]);
      putchar(' ');
    }
  }
  putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- mincost
MINCOST = r"""
int adj[24][24];
int part[24];

int cut_cost() {
  int i, j, cost;
  cost = 0;
  for (i = 0; i < 24; i++)
    for (j = i + 1; j < 24; j++)
      if (part[i] != part[j]) cost = cost + adj[i][j];
  return cost;
}

int main() {
  int i, j, seed, best, delta, bi, bj, cost, improved, t, passes;
  seed = 7;
  for (i = 0; i < 24; i++)
    for (j = i + 1; j < 24; j++) {
      seed = (seed * 2417 + 1033) % 32768;
      if (seed % 3 == 0) { adj[i][j] = seed % 9 + 1; adj[j][i] = adj[i][j]; }
    }
  for (i = 0; i < 24; i++) part[i] = i < 12;
  cost = cut_cost();
  putnum(cost); putchar('\n');
  improved = 1;
  passes = 0;
  while (improved && passes < 40) {
    improved = 0;
    best = 0; bi = -1; bj = -1;
    for (i = 0; i < 24; i++) {
      if (part[i] == 0) {
        for (j = 0; j < 24; j++) {
          if (part[j] == 1) {
            /* gain of swapping i and j */
            int g, k;
            g = 0;
            for (k = 0; k < 24; k++) {
              if (k != i && k != j) {
                if (part[k] != part[i]) g = g + adj[i][k]; else g = g - adj[i][k];
                if (part[k] != part[j]) g = g + adj[j][k]; else g = g - adj[j][k];
              }
            }
            g = g - 2 * adj[i][j];
            if (g > best) { best = g; bi = i; bj = j; }
          }
        }
      }
    }
    if (bi >= 0) {
      t = part[bi]; part[bi] = part[bj]; part[bj] = t;
      improved = 1;
    }
    passes = passes + 1;
  }
  cost = cut_cost();
  putnum(cost); putchar(' '); putnum(passes); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- fannkuch
# Pancake flips over every permutation of 0..5 (Heap's algorithm drives the
# enumeration).  The flip loop + reversal inner loop is the densest branchy
# kernel in the corpus: every iteration ends in a conditional the replicator
# wants to duplicate.
FANNKUCH = r"""
int a[8];
int maxflips, checksum, nperm;

int countflips() {
  int q[8], i, j, t, f, k;
  for (i = 0; i < 6; i++) q[i] = a[i];
  f = 0;
  k = q[0];
  while (k != 0) {
    i = 0; j = k;
    while (i < j) { t = q[i]; q[i] = q[j]; q[j] = t; i = i + 1; j = j - 1; }
    f = f + 1;
    k = q[0];
  }
  return f;
}

void visit() {
  int f;
  f = countflips();
  if (f > maxflips) maxflips = f;
  if (nperm % 2 == 0) checksum = checksum + f;
  else checksum = checksum - f;
  nperm = nperm + 1;
}

void permute(int k) {
  int i, t;
  if (k == 1) { visit(); return; }
  for (i = 0; i < k; i++) {
    permute(k - 1);
    if (k % 2 == 0) { t = a[i]; a[i] = a[k - 1]; a[k - 1] = t; }
    else { t = a[0]; a[0] = a[k - 1]; a[k - 1] = t; }
  }
}

int main() {
  int i;
  for (i = 0; i < 6; i++) a[i] = i;
  maxflips = 0; checksum = 0; nperm = 0;
  permute(6);
  putnum(checksum); putchar(' '); putnum(maxflips); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- lexer
# A one-pass DFA over a C-like token stream.  The state variable is threaded
# through an explicit transition function; tokens are echoed as one tag
# letter each, then counted.  Terminates immediately on empty input, so it
# can run with no stdin.
LEXER = r"""
int state, nident, nnum, nstr, nop, ncmt, len, maxlen, col;

void emit(int kind) {
  putchar(kind);
  col = col + 1;
  if (col == 40) { putchar('\n'); col = 0; }
}

int isletter(int c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

int isdigit2(int c) { return c >= '0' && c <= '9'; }

/* Finish a pending identifier or number token. */
void endtok() {
  if (state == 1) { nident = nident + 1; emit('I'); }
  else { nnum = nnum + 1; emit('N'); }
  if (len > maxlen) maxlen = len;
  state = 0;
}

/* One DFA transition on c; returns 1 when c was consumed.
   States: 0 start, 1 identifier, 2 number, 3 string, 4 line comment,
   5 block comment, 6 saw '/', 7 saw '*' in a block comment,
   8 escape inside a string. */
int step(int c) {
  if (state == 0) {
    if (isletter(c)) { state = 1; len = 1; return 1; }
    if (isdigit2(c)) { state = 2; len = 1; return 1; }
    if (c == '"') { state = 3; return 1; }
    if (c == '/') { state = 6; return 1; }
    if (c == ' ' || c == '\t' || c == '\n') return 1;
    nop = nop + 1; emit('O'); return 1;
  }
  if (state == 1) {
    if (isletter(c) || isdigit2(c)) { len = len + 1; return 1; }
    endtok(); return 0;
  }
  if (state == 2) {
    if (isdigit2(c)) { len = len + 1; return 1; }
    endtok(); return 0;
  }
  if (state == 3) {
    if (c == '\\') { state = 8; return 1; }
    if (c == '"') { nstr = nstr + 1; emit('S'); state = 0; return 1; }
    return 1;
  }
  if (state == 8) { state = 3; return 1; }
  if (state == 6) {
    if (c == '*') { state = 5; return 1; }
    if (c == '/') { state = 4; return 1; }
    nop = nop + 1; emit('O'); state = 0; return 0;
  }
  if (state == 4) {
    if (c == '\n') { ncmt = ncmt + 1; emit('C'); state = 0; }
    return 1;
  }
  if (state == 5) {
    if (c == '*') state = 7;
    return 1;
  }
  if (state == 7) {
    if (c == '/') { ncmt = ncmt + 1; emit('C'); state = 0; return 1; }
    if (c != '*') state = 5;
    return 1;
  }
  state = 0;
  return 1;
}

int main() {
  int c;
  state = 0; nident = 0; nnum = 0; nstr = 0; nop = 0; ncmt = 0;
  len = 0; maxlen = 0; col = 0;
  c = getchar();
  while (c != -1) {
    if (step(c)) c = getchar();
  }
  if (state == 1 || state == 2) endtok();
  else if (state == 4) { ncmt = ncmt + 1; emit('C'); }
  else if (state == 6) { nop = nop + 1; emit('O'); }
  if (col != 0) putchar('\n');
  putnum(nident); putchar(' ');
  putnum(nnum); putchar(' ');
  putnum(nstr); putchar(' ');
  putnum(nop); putchar(' ');
  putnum(ncmt); putchar(' ');
  putnum(maxlen); putchar('\n');
  return 0;
}
"""

# ---------------------------------------------------------------- rdparse
# A recursive-descent parser/evaluator for integer expressions with
# single-letter variables: expr := term (('+'|'-') term)*, term :=
# factor (('*'|'/'|'%') factor)*, factor := number | var | (expr) |
# -factor.  One value (or "error") per input line; mutual recursion
# through factor -> expr exercises call-heavy branchy control flow.
RDPARSE = r"""
char line[128];
int pos, err;
int vars[26];

void skipws() {
  while (line[pos] == ' ') pos = pos + 1;
}

int parse_factor() {
  int v, c;
  skipws();
  c = line[pos];
  if (c == '(') {
    pos = pos + 1;
    v = parse_expr();
    skipws();
    if (line[pos] == ')') pos = pos + 1;
    else err = 1;
    return v;
  }
  if (c == '-') { pos = pos + 1; return -parse_factor(); }
  if (c >= '0' && c <= '9') {
    v = 0;
    while (line[pos] >= '0' && line[pos] <= '9') {
      v = v * 10 + (line[pos] - '0');
      pos = pos + 1;
    }
    return v;
  }
  if (c >= 'a' && c <= 'z') { pos = pos + 1; return vars[c - 'a']; }
  err = 1;
  return 0;
}

int parse_term() {
  int v, d, c;
  v = parse_factor();
  for (;;) {
    skipws();
    c = line[pos];
    if (c == '*') { pos = pos + 1; v = v * parse_factor(); }
    else if (c == '/') {
      pos = pos + 1;
      d = parse_factor();
      if (d == 0) err = 1;
      else v = v / d;
    }
    else if (c == '%') {
      pos = pos + 1;
      d = parse_factor();
      if (d == 0) err = 1;
      else v = v % d;
    }
    else return v;
  }
}

int parse_expr() {
  int v, c;
  v = parse_term();
  for (;;) {
    skipws();
    c = line[pos];
    if (c == '+') { pos = pos + 1; v = v + parse_term(); }
    else if (c == '-') { pos = pos + 1; v = v - parse_term(); }
    else return v;
  }
}

int main() {
  int c, i, v, target, save;
  for (i = 0; i < 26; i++) vars[i] = 0;
  c = 0;
  while (c != -1) {
    i = 0;
    while ((c = getchar()) != -1 && c != '\n') {
      if (i < 127) { line[i] = c; i = i + 1; }
    }
    line[i] = 0;
    if (i > 0) {
      pos = 0; err = 0; target = -1;
      skipws();
      if (line[pos] >= 'a' && line[pos] <= 'z') {
        /* assignment lookahead: var '=' (but not '==') */
        save = pos;
        pos = pos + 1;
        skipws();
        if (line[pos] == '=' && line[pos + 1] != '=') {
          pos = pos + 1;
          target = line[save] - 'a';
        }
        else pos = save;
      }
      v = parse_expr();
      skipws();
      if (line[pos] != 0) err = 1;
      if (err) { putstr("error"); putchar('\n'); }
      else {
        if (target >= 0) vars[target] = v;
        putnum(v); putchar('\n');
      }
    }
  }
  return 0;
}
"""

LEXER_INPUT = r"""/* a small C-like input
   spanning a block comment */
int main() {
  int x1, y2;
  x1 = 42 + 7 * foo(bar, 19);
  y2 = x1 / 3; // integer half
  print("hello \"world\"\n");
  while (y2 > 0) { y2 = y2 - 1; }
  return 0;
}
"""

RDPARSE_INPUT = """1 + 2 * 3
(1 + 2) * 3
x = 10
y = x * x - 5
y % 7
-4 + 2 * (3 - 1)
100 / 7
8 * (2 +
bad!
z - 1
"""

LOREM = (
    "the quick brown fox jumps over the lazy dog\n"
    "pack my box with five dozen liquor jugs\n"
    "how vexingly quick daft zebras jump\n"
    "sphinx of black quartz judge my vow\n"
    "the five boxing wizards jump quickly\n"
    "jackdaws love my big sphinx of quartz\n"
) * 10

NROFF_DOC = (
    ".TH TEST 1 \\*(Dt\n"
    ".SH NAME\n"
    "test \\- a sample document for deroff\n"
    ".ig\n"
    "this block is completely ignored\n"
    "even this \\fBbold\\fP text\n"
    "..\n"
    ".SH DESCRIPTION\n"
    "This is \\fBbold\\fP text and \\fIitalic\\fP text with \\f(BIboth\\fR.\n"
    "Sizes can \\s+2grow\\s-2 and shrink; strings like \\*(Tm and \\*x vanish.\n"
    "Special characters: \\(bu bullets, a \\(em dash, and a literal \\\\ backslash.\n"
    ".B bold-argument\n"
    ".I italic-argument\n"
    ".PP\n"
    "A second paragraph with plain text lines\n"
    "that should survive the filter intact.\n"
) * 5

GREP_INPUT = "[jpq]u[a-z]+k" + "\n" + LOREM

# ---------------------------------------------------------------- nbody
# Shootout-style gravitational n-body in pure integer arithmetic: fixed-point
# positions (x16), Newton integer square root for distances.  Signed overflow
# is defined (-fwrapv matches the simulator's 32-bit wrapping), and every
# divisor is clamped positive, so the trajectory is bit-deterministic.
NBODY = r"""
int x[5], y[5], z[5], vx[5], vy[5], vz[5], m[5];

int isqrt(int n) {
  int r, t;
  if (n <= 0) return 0;
  r = n;
  t = (r + n / r) / 2;
  while (t < r) { r = t; t = (r + n / r) / 2; }
  return r;
}

int main() {
  int i, j, step, dx, dy, dz, d2, d, f, sum;
  for (i = 0; i < 5; i++) {
    x[i] = (i * 371 % 97 - 48) * 16;
    y[i] = (i * 533 % 89 - 44) * 16;
    z[i] = (i * 719 % 83 - 41) * 16;
    vx[i] = i * 7 % 13 - 6;
    vy[i] = i * 11 % 17 - 8;
    vz[i] = i * 13 % 19 - 9;
    m[i] = 20 + i * 30 % 70;
  }
  for (step = 0; step < 50; step++) {
    for (i = 0; i < 5; i++)
      for (j = 0; j < 5; j++) {
        if (i == j) continue;
        dx = x[j] - x[i];
        dy = y[j] - y[i];
        dz = z[j] - z[i];
        d2 = dx * dx + dy * dy + dz * dz;
        if (d2 < 4) d2 = 4;
        d = isqrt(d2);
        f = m[j] * 256 / d2;
        vx[i] = vx[i] + f * dx / d;
        vy[i] = vy[i] + f * dy / d;
        vz[i] = vz[i] + f * dz / d;
      }
    for (i = 0; i < 5; i++) {
      x[i] = x[i] + vx[i] / 4;
      y[i] = y[i] + vy[i] / 4;
      z[i] = z[i] + vz[i] / 4;
    }
  }
  sum = 0;
  for (i = 0; i < 5; i++)
    sum = sum + x[i] + y[i] + z[i] + vx[i] + vy[i] + vz[i];
  putnum(sum); putchar('\n');
  for (i = 0; i < 5; i++) {
    putnum(x[i]); putchar(' ');
    putnum(y[i]); putchar(' ');
    putnum(z[i]); putchar('\n');
  }
  return 0;
}
"""

# ---------------------------------------------------------------- spectral
# Shootout spectral-norm in fixed point: power iteration with the implicit
# matrix A(i,j) = 1/((i+j)(i+j+1)/2 + i + 1), vectors renormalized to 1000
# each round so every intermediate stays small and positive (all divisors
# provably nonzero).
SPECTRAL = r"""
int u[16], v[16], tmp[16];

int aden(int i, int j) {
  return (i + j) * (i + j + 1) / 2 + i + 1;
}

int main() {
  int i, j, s, it, maxv;
  for (i = 0; i < 16; i++) u[i] = 1000;
  maxv = 1000;
  for (it = 0; it < 10; it++) {
    for (i = 0; i < 16; i++) {
      s = 0;
      for (j = 0; j < 16; j++) s = s + u[j] * 256 / aden(i, j);
      tmp[i] = s;
    }
    for (i = 0; i < 16; i++) {
      s = 0;
      for (j = 0; j < 16; j++) s = s + tmp[j] / aden(j, i);
      v[i] = s / 256;
    }
    maxv = 0;
    for (i = 0; i < 16; i++)
      if (v[i] > maxv) maxv = v[i];
    for (i = 0; i < 16; i++) u[i] = v[i] * 1000 / maxv;
  }
  putnum(maxv); putchar('\n');
  for (i = 0; i < 16; i++) { putnum(u[i]); putchar(' '); }
  putchar('\n');
  return 0;
}
"""

PROGRAMS = [
    # name, description, helpers, source, input
    ("banner", "banner generator", ["putstr"], BANNER, "HELLO\n"),
    ("cal", "calendar generator (full year)", ["putstr", "putnum", "readnum"], CAL, "1992\n"),
    ("compact", "file compression (static Huffman analysis)", ["putnum"], COMPACT, LOREM),
    ("deroff", "remove nroff constructs", [], DEROFF, NROFF_DOC),
    ("grep", "pattern search (literal, ^ $ . *)", ["putstr", "putnum"], GREP, GREP_INPUT),
    ("od", "octal dump", ["putoct"], OD, LOREM[:512]),
    ("sort", "sort lines", ["putstr"], SORT, LOREM[: LOREM.index("jackdaws") + 40]),
    ("wc", "word count", ["putnum"], WC, LOREM),
    ("bubblesort", "sort numbers", ["putnum"], BUBBLE, ""),
    ("matmult", "matrix multiplication", ["putnum"], MATMULT, ""),
    ("sieve", "sieve of Eratosthenes", ["putnum"], SIEVE, ""),
    ("queens", "8-queens problem", ["putnum"], QUEENS, ""),
    ("quicksort", "sort numbers (iterative)", ["putnum"], QUICKSORT, ""),
    ("mincost", "VLSI circuit partitioning", ["putnum"], MINCOST, ""),
    ("fannkuch", "pancake flips over all permutations", ["putnum"], FANNKUCH, ""),
    ("lexer", "state-machine lexer for C-like tokens", ["putnum"], LEXER, LEXER_INPUT),
    ("rdparse", "recursive-descent expression evaluator", ["putstr", "putnum"], RDPARSE, RDPARSE_INPUT),
    ("nbody", "integer n-body simulation (fixed point)", ["putnum"], NBODY, ""),
    ("spectral", "spectral norm by power iteration (fixed point)", ["putnum"], SPECTRAL, ""),
]

CLASSES = {
    "banner": "Utility", "cal": "Utility", "compact": "Utility",
    "deroff": "Utility", "grep": "Utility", "od": "Utility",
    "sort": "Utility", "wc": "Utility",
    "bubblesort": "Benchmark", "matmult": "Benchmark", "sieve": "Benchmark",
    "queens": "Benchmark", "quicksort": "Benchmark",
    "mincost": "User code",
    "fannkuch": "Benchmark", "lexer": "Utility", "rdparse": "User code",
    "nbody": "Benchmark", "spectral": "Benchmark",
}

# The corpus additions are also materialized as example source files with
# bundled inputs and golden outputs.
EXAMPLES = ["fannkuch", "lexer", "rdparse", "nbody", "spectral"]


def build_source(helpers, body):
    return "".join(HELPERS[h] for h in helpers) + body


def run_gcc(source, input_text):
    with tempfile.TemporaryDirectory() as d:
        csrc = os.path.join(d, "prog.c")
        exe = os.path.join(d, "prog")
        with open(csrc, "w") as f:
            f.write("#include <stdio.h>\n#include <stdlib.h>\n")
            f.write(source)
        subprocess.run(
            ["gcc", "-funsigned-char", "-fwrapv", "-O0", "-o", exe, csrc],
            check=True, capture_output=True)
        res = subprocess.run([exe], input=input_text.encode(),
                             capture_output=True, timeout=30)
        if res.returncode != 0:
            raise RuntimeError(f"nonzero exit {res.returncode}")
        return res.stdout.decode()


def ocaml_string(s):
    out = []
    for ch in s:
        o = ord(ch)
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif 32 <= o < 127:
            out.append(ch)
        else:
            out.append("\\%03d" % o)
    return '"' + "".join(out) + '"'


def main():
    entries = []
    for name, desc, helpers, body, input_text in PROGRAMS:
        source = build_source(helpers, body)
        expected = run_gcc(source, input_text)
        print(f"{name:12s} expected output {len(expected)} bytes", file=sys.stderr)
        entries.append((name, desc, source, input_text, expected))

    with open("lib/programs/suite.ml", "w") as f:
        f.write("(* Generated by tools/gen_programs.py — do not edit by hand.\n")
        f.write("   Expected outputs were captured from gcc -funsigned-char -O0. *)\n\n")
        f.write("type benchmark = {\n")
        f.write("  name : string;\n")
        f.write("  clazz : string;\n")
        f.write("  description : string;\n")
        f.write("  source : string;\n")
        f.write("  input : string;\n")
        f.write("  expected_output : string;\n")
        f.write("}\n\n")
        for name, desc, source, input_text, expected in entries:
            f.write(f"let {name} = {{\n")
            f.write(f"  name = {ocaml_string(name)};\n")
            f.write(f"  clazz = {ocaml_string(CLASSES[name])};\n")
            f.write(f"  description = {ocaml_string(desc)};\n")
            f.write(f"  source = {ocaml_string(source)};\n")
            f.write(f"  input = {ocaml_string(input_text)};\n")
            f.write(f"  expected_output = {ocaml_string(expected)};\n")
            f.write("}\n\n")
        f.write("let all = [ " + "; ".join(n for n, *_ in entries) + " ]\n\n")
        f.write("let find name = List.find_opt (fun b -> String.equal b.name name) all\n")
    print("wrote lib/programs/suite.ml", file=sys.stderr)

    for name, desc, source, input_text, expected in entries:
        if name not in EXAMPLES:
            continue
        with open(f"examples/c/{name}.c", "w") as f:
            f.write(f"/* {desc}; generated by tools/gen_programs.py — do not\n")
            f.write("   edit by hand.  Bundled input: %s.input; golden output\n" % name)
            f.write("   (captured from gcc -funsigned-char -O0): %s.expected. */\n" % name)
            f.write(source)
        with open(f"examples/c/{name}.input", "w") as f:
            f.write(input_text)
        with open(f"examples/c/{name}.expected", "w") as f:
            f.write(expected)
        print(f"wrote examples/c/{name}.{{c,input,expected}}", file=sys.stderr)


if __name__ == "__main__":
    main()
