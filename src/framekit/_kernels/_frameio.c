/* Compiled frame-file I/O: the float-row writer and the frame-layout scanner.
 *
 * Twin of _frameio_py.py.  spell_rows spells every double exactly as
 * Python's "%.17g" % x does, and negative zero as "-0.0".  The 17 digits come
 * from exact integer arithmetic for about 1e-15 <= |x| < 1e40 and from
 * snprintf in the C locale otherwise; nothing needs libm.  frame_read, the
 * scanner's one walk, accepts only the frame layout framekit and perfbench
 * write and declines everything else, which the JSON walk in framekit/cli.py
 * then reads; it converts each number as it checks the grammar, into an
 * output of frame_numbers(file) doubles, and each is the double the walk
 * would give.  A literal of at most 19 significant digits whose value is
 * w 10^q with q in [-27, 27], nearly every literal "%.17g" and repr write, is
 * converted exactly from the digits the walk gathers, in 128-bit integers;
 * strtod_l in the C locale reads every other literal.  Keep the two files in
 * sync.
 */
#define _GNU_SOURCE
#include <float.h>
#include <locale.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#ifdef __APPLE__
#include <xlocale.h>
#endif

typedef unsigned __int128 u128;

#define TEN16 UINT64_C(10000000000000000)
#define TEN17 UINT64_C(100000000000000000)

/* every power of five below 2^64 */
static const uint64_t POW5[28] = {
    UINT64_C(1), UINT64_C(5), UINT64_C(25), UINT64_C(125), UINT64_C(625),
    UINT64_C(3125), UINT64_C(15625), UINT64_C(78125), UINT64_C(390625),
    UINT64_C(1953125), UINT64_C(9765625), UINT64_C(48828125),
    UINT64_C(244140625), UINT64_C(1220703125), UINT64_C(6103515625),
    UINT64_C(30517578125), UINT64_C(152587890625), UINT64_C(762939453125),
    UINT64_C(3814697265625), UINT64_C(19073486328125),
    UINT64_C(95367431640625), UINT64_C(476837158203125),
    UINT64_C(2384185791015625), UINT64_C(11920928955078125),
    UINT64_C(59604644775390625), UINT64_C(298023223876953125),
    UINT64_C(1490116119384765625), UINT64_C(7450580596923828125),
};

static u128 pow5(int a)
{
    return a <= 27 ? (u128)POW5[a] : (u128)POW5[27] * POW5[a - 27];
}

static char *put(char *p, const char *text)
{
    while (*text)
        *p++ = *text++;
    return p;
}

/* The C locale, made into *held by the first call that needs it; (locale_t)0
 * if it cannot be made.  Its maker frees it. */
static locale_t c_locale(locale_t *held)
{
    if (!*held)
        *held = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    return *held;
}

/* "%.17g" % x by the C library, in the C locale whatever LC_NUMERIC is */
static char *spell_libc(double x, char *p, locale_t *held)
{
    locale_t old = uselocale(c_locale(held) ? *held : LC_GLOBAL_LOCALE);
    int n = snprintf(p, 25, "%.17g", x); /* at most 24 characters for a double */
    uselocale(old);
    return p + n;
}

/* x as Python spells "%.17g" % x, with "-0.0" for negative zero; at most 24
 * characters.  For about 1e-15 <= |x| < 1e40, with |x| = m 2^e, the 17
 * digits are N = round-half-even(m 2^e 10^(16-d)) computed exactly as
 * num / den in 128 bits, where d is the decimal exponent of the unrounded
 * product: 10^16 <= m 2^e 10^(16-d) < 10^17.  Only then does rounding pick
 * the exponent, when N reaches 10^17. */
static char *spell(double x, char *p, locale_t *held)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((UINT64_C(1) << 52) - 1);
    if (biased == 0x7ff) {
        if (m)
            return put(p, "nan");
        return put(p, bits >> 63 ? "-inf" : "inf");
    }
    if (biased == 0 && m == 0)
        return put(p, bits >> 63 ? "-0.0" : "0");
    int e = biased - 1075;
    /* floor(E log10 2) for |x| in [2^E, 2^(E+1)), exact for |E| < 1100 */
    int d = (int)(((int64_t)e + 52) * 78913 >> 18);
    if (biased == 0 || d < -15 || d > 39)
        return spell_libc(x, p, held);
    m |= UINT64_C(1) << 52;
    uint64_t n;
    for (;;) {
        /* m 2^e 10^k = m 5^k 2^(e+k) = num / (5^a 2^b); in range, num has
         * at most 125 bits and den at most 72, and a and b are never both
         * nonzero */
        int k = 16 - d, s = e + k;
        int a = k < 0 ? -k : 0, b = s < 0 ? -s : 0;
        u128 num = (u128)m * (k > 0 ? pow5(k) : 1) << (s > 0 ? s : 0);
        u128 q, r, den;
        if (a == 0) {
            den = (u128)1 << b;
            q = num >> b;
            r = num - (q << b);
        } else {
            den = pow5(a);
            q = num / den;
            r = num - q * den;
        }
        if (q >= TEN17) { /* the unrounded product chooses d */
            d++;
            continue;
        }
        if (2 * r > den || (2 * r == den && (q & 1)))
            q++;
        if (q == TEN17) { /* 17 nines and then half or more: 1e-14 is one */
            q = TEN16;
            d++;
        }
        n = (uint64_t)q;
        break;
    }
    char digit[17];
    uint32_t high = (uint32_t)(n / 100000000), low = (uint32_t)(n % 100000000);
    for (int i = 16; i >= 9; i--, low /= 10)
        digit[i] = (char)('0' + low % 10);
    for (int i = 8; i >= 0; i--, high /= 10)
        digit[i] = (char)('0' + high % 10);
    int count = 17;
    while (digit[count - 1] == '0')
        count--;
    if (bits >> 63)
        *p++ = '-';
    if (d >= 0 && d < 17) { /* fixed: d + 1 integer digits */
        memcpy(p, digit, (size_t)d + 1);
        p += d + 1;
        if (count > d + 1) {
            *p++ = '.';
            memcpy(p, digit + d + 1, (size_t)(count - d - 1));
            p += count - d - 1;
        }
    } else if (d < 0 && d >= -4) { /* fixed: 0.000ddd */
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > d; i--)
            *p++ = '0';
        memcpy(p, digit, (size_t)count);
        p += count;
    } else { /* exponent, at least two digits */
        *p++ = digit[0];
        if (count > 1) {
            *p++ = '.';
            memcpy(p, digit + 1, (size_t)(count - 1));
            p += count - 1;
        }
        *p++ = 'e';
        *p++ = d < 0 ? '-' : '+';
        int u = d < 0 ? -d : d;
        *p++ = (char)('0' + u / 10);
        *p++ = (char)('0' + u % 10);
    }
    return p;
}

/* Rows *row.. of the rows x cols table a, spelt "[v, v], [v, v]" with ", "
 * before every row but row 0, as many whole rows as fit in cap bytes by a
 * bound of 26 bytes a value and 4 a row.  Advances *row and returns the
 * number of bytes written; cap must hold one row, 26 cols + 4. */
long spell_rows(const double *a, long rows, long cols, char *out, long cap, long *row)
{
    locale_t held = (locale_t)0;
    char *p = out;
    long i = *row;
    for (; i < rows && (p - out) + 26 * cols + 4 <= cap; i++) {
        if (i) {
            *p++ = ',';
            *p++ = ' ';
        }
        *p++ = '[';
        for (long j = 0; j < cols; j++) {
            if (j) {
                *p++ = ',';
                *p++ = ' ';
            }
            p = spell(a[i * cols + j], p, &held);
        }
        *p++ = ']';
    }
    if (held)
        freelocale(held);
    *row = i;
    return (long)(p - out);
}

/* ------------------------------------------------------------------------
 * The scanner.  It reads the bytes [p, end) and never a byte at or past end,
 * and writes the doubles [out, limit) and never one at or past limit.
 * While it walks a number literal it gathers the significand's digits w and
 * the decimal exponent q of the literal's value w 10^q; for at most 19
 * significant digits and q in [-27, 27] decimal() converts them exactly,
 * and strtod_l in the C locale reads every other literal from a copy. */

#define MAX_LITERAL 63
#define MAX_DIGITS 19 /* 10^19 - 1 < 2^64 */
#define MAX_Q 27      /* 5^27 < 2^63, the last entry of POW5 */

typedef struct {
    const char *p, *end;
    double *out, *limit;
    locale_t held; /* the C locale once strtod_l has needed it */
} scan_t;

/* skip JSON whitespace, then match the bytes of tok */
static int token(scan_t *s, const char *tok)
{
    while (s->p < s->end && (*s->p == ' ' || *s->p == '\t' || *s->p == '\n' || *s->p == '\r'))
        s->p++;
    size_t n = strlen(tok);
    if ((size_t)(s->end - s->p) < n || memcmp(s->p, tok, n) != 0)
        return 0;
    s->p += n;
    return 1;
}

/* 1 and their value in *value if the 8 bytes at p are all ASCII digits:
 * each byte's high nibble is 3 and adding 6 leaves it 3, and then three
 * multiplications combine pairs of digits, of pairs and of fours */
static int eight_digits(const char *p, uint64_t *value)
{
    uint64_t v;
    memcpy(&v, p, sizeof v);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v); /* the first byte lowest */
#endif
    if (((v & UINT64_C(0xF0F0F0F0F0F0F0F0))
         | (((v + UINT64_C(0x0606060606060606)) & UINT64_C(0xF0F0F0F0F0F0F0F0)) >> 4))
        != UINT64_C(0x3333333333333333))
        return 0;
    v = (v & UINT64_C(0x0F0F0F0F0F0F0F0F)) * 2561 >> 8;           /* 10 a + b */
    v = (v & UINT64_C(0x00FF00FF00FF00FF)) * 6553601 >> 16;       /* 100 a + b */
    *value = (v & UINT64_C(0x0000FFFF0000FFFF)) * UINT64_C(42949672960001) >> 32;
    return 1;
}

/* past the digits at p, each appended to *w, which wraps past 19 of them;
 * eight at a time while eight bytes before end are digits */
static const char *digits(const char *p, const char *end, uint64_t *w)
{
    uint64_t v = *w, eight;
    for (; end - p >= 8 && eight_digits(p, &eight); p += 8)
        v = v * 100000000 + eight;
    for (; p < end && (unsigned)(*p - '0') <= 9; p++)
        v = 10 * v + (uint64_t)(*p - '0');
    *w = v;
    return p;
}

static int bit_length(u128 v)
{
    uint64_t high = (uint64_t)(v >> 64);
    return high ? 128 - __builtin_clzll(high) : 64 - __builtin_clzll((uint64_t)v);
}

/* The double nearest w 10^q, ties to even, for 0 < w < 2^64 and |q| <= 27,
 * by exact integers (W. D. Clinger, "How to Read Floating Point Numbers
 * Accurately", PLDI 1990).  w 10^q = v 2^e exactly: v = w 5^q and e = q for
 * q >= 0, at most 127 bits; for q < 0, v is the quotient of w 2^t by 5^-q,
 * with t chosen so that v lies in [2^62, 2^64), e = q - t, and the
 * remainder is the sticky bit.  v is rounded once to 53 bits. */
static double decimal(uint64_t w, int q)
{
    u128 v;
    int e = q, sticky = 0;
    if (q >= 0) {
        v = (u128)w * POW5[q];
    } else {
        uint64_t d = POW5[-q];
        /* w 2^t has 63 bits more than d, so it is below d 2^64 and the
         * 128-by-64-bit division is one machine division */
        int t = 63 - __builtin_clzll(d) + __builtin_clzll(w);
        u128 n = (u128)w << t;
        v = n / d;
        sticky = n != v * d;
        e -= t;
    }
    int shift = bit_length(v) - 53;
    uint64_t m;
    if (shift <= 0) {
        m = (uint64_t)v << -shift;
    } else {
        u128 half = (u128)1 << (shift - 1), low = v & ((half << 1) - 1);
        m = (uint64_t)(v >> shift);
        if (low > half || (low == half && (sticky || (m & 1))))
            m++;
        if (m >> 53) { /* rounded up to 2^53 */
            m >>= 1;
            shift++;
        }
    }
    /* m 2^(e + shift) with m in [2^52, 2^53): a normal double */
    uint64_t bits = (uint64_t)(e + shift + 1075) << 52 | (m & ((UINT64_C(1) << 52) - 1));
    double x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* One number under the JSON grammar, into *s->out++.  0 declines: no room
 * left at out, not a number, longer than MAX_LITERAL, or not finite as a
 * double.  An integer literal is an int for json, so "-0" reads as +0.0. */
static int number(scan_t *s)
{
    if (s->out == s->limit)
        return 0;
    token(s, "");
    const char *start = s->p, *end = s->end, *p = start;
    int negative = p < end && *p == '-', integer = 1;
    p += negative;
    const char *first = p;
    uint64_t w = 0;
    if (p < end && *p == '0')
        p++;
    else if (p < end && *p >= '1' && *p <= '9')
        p = digits(p, end, &w);
    else
        return 0;
    long count = p - first, q = 0; /* digits in w, and q of the value w 10^q */
    if (p < end && *p == '.') {
        const char *f = ++p;
        p = digits(p, end, &w);
        if (p == f)
            return 0;
        count += p - f;
        q = -(p - f);
        integer = 0;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        int minus = p < end && *p == '-';
        if (p < end && (*p == '-' || *p == '+'))
            p++;
        const char *f = p;
        long exponent = 0; /* capped, past which q is out of range anyway */
        for (; p < end && (unsigned)(*p - '0') <= 9; p++)
            if (exponent < 100000)
                exponent = 10 * exponent + (*p - '0');
        if (p == f)
            return 0;
        q += minus ? -exponent : exponent;
        integer = 0;
    }
    s->p = p;
    size_t n = (size_t)(p - start);
    if (n > MAX_LITERAL)
        return 0;
    if (count > MAX_DIGITS) /* leading zeros leave w at 0: they do not count */
        for (const char *z = first; z < p && (*z == '0' || *z == '.'); z++)
            count -= *z == '0';
    double v;
    if (count <= MAX_DIGITS && w == 0) {
        v = negative && !integer ? -0.0 : 0.0;
    } else if (count <= MAX_DIGITS && q >= -MAX_Q && q <= MAX_Q) {
        v = decimal(w, (int)q);
        v = negative ? -v : v;
    } else {
        if (!c_locale(&s->held))
            return 0;
        char text[MAX_LITERAL + 1];
        memcpy(text, start, n);
        text[n] = '\0';
        v = strtod_l(text, NULL, s->held);
        if (!(v >= -DBL_MAX && v <= DBL_MAX))
            return 0;
        v = integer && v == 0.0 ? 0.0 : v;
    }
    *s->out++ = v;
    return 1;
}

/* "[" number ("," number)* "]": the count, or -1 to decline (an empty array
 * too) */
static long array(scan_t *s)
{
    if (!token(s, "["))
        return -1;
    long n = 0;
    do {
        if (!number(s))
            return -1;
        n++;
    } while (token(s, ","));
    return token(s, "]") ? n : -1;
}

/* The frame layout, its counts (points, weights, rows, width) into shape; 0
 * accepts. */
static int frame(scan_t *s, long shape[4])
{
    if (!token(s, "{") || !token(s, "\"grid\"") || !token(s, ":") || !token(s, "{")
        || !token(s, "\"points\"") || !token(s, ":"))
        return -1;
    if ((shape[0] = array(s)) < 0 || !token(s, ",") || !token(s, "\"weights\"")
        || !token(s, ":"))
        return -1;
    if ((shape[1] = array(s)) < 0 || !token(s, "}") || !token(s, ",")
        || !token(s, "\"vectors\"") || !token(s, ":") || !token(s, "["))
        return -1;
    shape[2] = shape[3] = 0;
    do {
        long width = array(s);
        if (width < 0 || (shape[2] > 0 && width != shape[3]))
            return -1;
        shape[3] = width;
        shape[2]++;
    } while (token(s, ","));
    if (!token(s, "]") || !token(s, "}"))
        return -1;
    token(s, "");
    return s->p == s->end ? 0 : -1;
}

/* The commas of buf[0, len), + 1: the count of numbers of a file in the
 * frame layout, where each number but the last is followed by one comma
 * and the keys and whitespace hold none. */
long frame_numbers(const char *buf, long len)
{
    long commas = 0;
    for (long i = 0; i < len; i++)
        commas += buf[i] == ',';
    return commas + 1;
}

/* The numbers of the frame file in buf[0, len), in file order, into out:
 * the points, the weights, then the rows, each of width numbers.  0 with
 * shape = (points, weights, rows, width), all positive, when the file has
 * the frame layout and every number is a finite double; -1 to decline it,
 * also at its number cap + 1, which is not written. */
int frame_read(const char *buf, long len, double *out, long cap, long shape[4])
{
    scan_t s = {buf, buf + len, out, out + cap, (locale_t)0};
    int status = frame(&s, shape);
    if (s.held)
        freelocale(s.held);
    return status;
}
