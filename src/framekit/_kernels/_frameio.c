/* Compiled frame-file I/O: the float-row writer and the frame-layout scanner.
 *
 * Twin of _frameio_py.py.  spell_rows spells every double exactly as
 * Python's "%.17g" % x does, and negative zero as "-0.0".  The 17 digits come
 * from exact integer arithmetic for about 1e-15 <= |x| < 1e40 and from
 * snprintf in the C locale otherwise; nothing needs libm.  frame_shape and frame_read
 * accept only the frame layout framekit and perfbench write and decline
 * everything else, which the JSON walk in framekit/cli.py then reads; every
 * value they accept is the double the walk would give.  Keep the two files
 * in sync.
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

/* "%.17g" % x by the C library, in the C locale whatever LC_NUMERIC is */
static char *spell_libc(double x, char *p, locale_t *c_locale)
{
    if (!*c_locale)
        *c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    locale_t old = uselocale(*c_locale ? *c_locale : LC_GLOBAL_LOCALE);
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
static char *spell(double x, char *p, locale_t *c_locale)
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
        return spell_libc(x, p, c_locale);
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
    locale_t c_locale = (locale_t)0;
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
            p = spell(a[i * cols + j], p, &c_locale);
        }
        *p++ = ']';
    }
    if (c_locale)
        freelocale(c_locale);
    *row = i;
    return (long)(p - out);
}

/* ------------------------------------------------------------------------
 * The scanner.  It reads the bytes [p, end) and never a byte at or past end;
 * a number literal is copied out before strtod_l reads it. */

#define MAX_LITERAL 63

typedef struct {
    const char *p, *end;
    locale_t c_locale; /* (locale_t)0 while counting: no number is converted */
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

static int digits(scan_t *s)
{
    const char *start = s->p;
    while (s->p < s->end && *s->p >= '0' && *s->p <= '9')
        s->p++;
    return s->p > start;
}

static int next_is(scan_t *s, char c)
{
    return s->p < s->end && *s->p == c;
}

/* One number under the JSON grammar, into *out when converting.  0 declines:
 * not a number, longer than MAX_LITERAL, or not finite as a double.  An
 * integer literal is an int for json, so "-0" reads as +0.0. */
static int number(scan_t *s, double *out)
{
    token(s, "");
    const char *start = s->p;
    int integer = 1;
    if (next_is(s, '-'))
        s->p++;
    if (next_is(s, '0'))
        s->p++;
    else if (!(s->p < s->end && *s->p >= '1' && *s->p <= '9') || !digits(s))
        return 0;
    if (next_is(s, '.')) {
        s->p++;
        if (!digits(s))
            return 0;
        integer = 0;
    }
    if (next_is(s, 'e') || next_is(s, 'E')) {
        s->p++;
        if (next_is(s, '+') || next_is(s, '-'))
            s->p++;
        if (!digits(s))
            return 0;
        integer = 0;
    }
    size_t n = (size_t)(s->p - start);
    if (n > MAX_LITERAL)
        return 0;
    if (s->c_locale) {
        char text[MAX_LITERAL + 1];
        memcpy(text, start, n);
        text[n] = '\0';
        double v = strtod_l(text, NULL, s->c_locale);
        if (!(v >= -DBL_MAX && v <= DBL_MAX))
            return 0;
        *out = integer && v == 0.0 ? 0.0 : v;
    }
    return 1;
}

/* "[" number ("," number)* "]", at most cap numbers stored at out when
 * converting; the count, or -1 to decline (an empty array too) */
static long array(scan_t *s, double *out, long cap)
{
    if (!token(s, "["))
        return -1;
    long n = 0;
    do {
        if (s->c_locale && n >= cap)
            return -1;
        if (!number(s, s->c_locale ? out + n : NULL))
            return -1;
        n++;
    } while (token(s, ","));
    return token(s, "]") ? n : -1;
}

/* The frame layout, counting into shape (points, weights, rows, width) or,
 * when converting, filling arrays of the shape counted before; 0 accepts. */
static int frame(scan_t *s, long shape[4], double *points, double *weights, double *vectors)
{
    int fill = s->c_locale != (locale_t)0;
    long n[4];
    if (!token(s, "{") || !token(s, "\"grid\"") || !token(s, ":") || !token(s, "{")
        || !token(s, "\"points\"") || !token(s, ":"))
        return -1;
    if ((n[0] = array(s, points, shape[0])) < 0 || !token(s, ",")
        || !token(s, "\"weights\"") || !token(s, ":"))
        return -1;
    if ((n[1] = array(s, weights, shape[1])) < 0 || !token(s, "}") || !token(s, ",")
        || !token(s, "\"vectors\"") || !token(s, ":") || !token(s, "["))
        return -1;
    n[2] = n[3] = 0;
    do {
        if (fill && n[2] >= shape[2])
            return -1;
        long width = array(s, fill ? vectors + n[2] * shape[3] : NULL, shape[3]);
        if (width < 0 || (n[2] > 0 && width != n[3]))
            return -1;
        n[3] = width;
        n[2]++;
    } while (token(s, ","));
    if (!token(s, "]") || !token(s, "}"))
        return -1;
    token(s, "");
    if (s->p != s->end)
        return -1;
    if (fill)
        return memcmp(n, shape, sizeof n) == 0 ? 0 : -1;
    memcpy(shape, n, sizeof n);
    return 0;
}

/* Counts of the frame file in buf[0, len): shape = (points, weights, rows,
 * width), all positive.  0 when the file has the frame layout, -1 to
 * decline it. */
int frame_shape(const char *buf, long len, long shape[4])
{
    scan_t s = {buf, buf + len, (locale_t)0};
    long none[4] = {0, 0, 0, 0};
    memcpy(shape, none, sizeof none);
    return frame(&s, shape, NULL, NULL, NULL);
}

/* The numbers of the frame file in buf[0, len), whose frame_shape is shape,
 * into points, weights and the rows x width vectors.  0 when every number is
 * a finite double, -1 to decline. */
int frame_read(const char *buf, long len, long shape[4], double *points, double *weights,
               double *vectors)
{
    scan_t s = {buf, buf + len, newlocale(LC_ALL_MASK, "C", (locale_t)0)};
    if (!s.c_locale)
        return -1;
    int status = frame(&s, shape, points, weights, vectors);
    freelocale(s.c_locale);
    return status;
}
