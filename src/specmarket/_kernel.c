/* One market's whole horizon, bit for bit as specmarket.market.step, the
 * span-counting chain of specmarket.analytics.dim_distribution, and the CSV
 * row writer of specmarket.io.write_columns.
 *
 * Built and loaded by specmarket._kernel; see its docstring for the rules
 * that keep the bits equal to numpy's and Python's: the pairwise totals, the
 * order of the draws, the settle updates and the chain's cell updates
 * (compile with -ffp-contract=off, so the one fused multiply-add is the
 * explicit fma of the settle quotient) and the C library's log10.
 *
 * The settle quotient m / price is correctly rounded on either path. Where
 * the compiler targets FMA (__FMA__) and a step is inside the guard (price
 * in [2^-60, 2^60], every order +0.0 or in [2^-900, 2^901)), it is
 * Markstein's FMA-corrected quotient from y = 1 / price (P. W. Markstein,
 * IBM J. Res. Dev. 34(1), 1990; J.-M. Muller et al., Handbook of
 * Floating-Point Arithmetic, division with an FMA): nothing in it underflows
 * or overflows, so it equals the division. Any other step divides.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

#define PW_BLOCKSIZE 128

/* eight doubles; each lane adds as a scalar double does */
typedef double lanes __attribute__((vector_size(64)));

/* the totals of two arrays of one length */
typedef struct {
    double a, b;
} totals;

static double reduce8(const lanes *v)
{
    double r[8];
    memcpy(r, v, sizeof r);
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
}

/* numpy's DOUBLE_pairwise_sum of a and of b, in one tree */
static totals pairwise2(const double *a, const double *b, int64_t n)
{
    totals res = {-0.0, -0.0};
    if (n < 8) {
        for (int64_t i = 0; i < n; i++) {
            res.a += a[i];
            res.b += b[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        lanes ra, rb, xa, xb;
        int64_t i;
        memcpy(&ra, a, sizeof ra);
        memcpy(&rb, b, sizeof rb);
        for (i = 8; i < n - (n % 8); i += 8) {
            memcpy(&xa, a + i, sizeof xa);
            memcpy(&xb, b + i, sizeof xb);
            ra += xa;
            rb += xb;
        }
        res.a = reduce8(&ra);
        res.b = reduce8(&rb);
        for (; i < n; i++) {
            res.a += a[i];
            res.b += b[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    totals left = pairwise2(a, b, n2), right = pairwise2(a + n2, b + n2, n - n2);
    res.a = left.a + right.a;
    res.b = left.b + right.b;
    return res;
}

/* np.add.reduce of a contiguous float64 array */
double specmarket_total(const double *a, int64_t n)
{
    return 0.0 + pairwise2(a, a, n).a;
}

/* The guard of the FMA quotient, on the bits of one order: set unless the
 * order is +0.0 or its biased exponent is in [1023 - 900, 1023 + 900]. Signs,
 * infinities and NaNs fall outside. Integer ops, so the order loops vectorise. */
static inline uint64_t order_wide(double m)
{
    uint64_t bits;
    memcpy(&bits, &m, sizeof bits);
    return (bits != 0) & ((bits >> 52) - 123 > 1800);
}

/* whether a step may take the FMA quotient: the build targets FMA, the
 * price is in [2^-60, 2^60] and no order is wide */
static inline int fma_step(double price, uint64_t wide)
{
#ifdef __FMA__
    return !wide && price >= 0x1p-60 && price <= 0x1p60;
#else
    (void)price, (void)wide;
    return 0;
#endif
}

/* m / price, correctly rounded. On an fma_step, from y = 1 / price:
 * q0 = m * y is within a few ulps, the inner fma gives its remainder
 * m - q0 * price exactly, and the outer one rounds the corrected quotient. */
static inline double settle_quotient(double m, double price, double y, int fast)
{
#ifdef __FMA__
    if (fast) {
        double q0 = m * y;
        return fma(fma(-q0, price, m), y, q0);
    }
#endif
    (void)y, (void)fast;
    return m / price;
}

/* q[i] = m[i] / price as the settle loop computes it, for m[0..n) taken as
 * one step's orders. Returns 1 if it took the FMA quotient, 0 if it divided. */
int64_t specmarket_divide(const double *m, int64_t n, double price, double *q)
{
    uint64_t wide = 0;
    for (int64_t i = 0; i < n; i++) {
        wide |= order_wide(m[i]);
    }
    const int fast = fma_step(price, wide);
    const double y = 1.0 / price;
    for (int64_t i = 0; i < n; i++) {
        q[i] = settle_quotient(m[i], price, y, fast);
    }
    return fast;
}

/* searchsorted(cum, u, side="right"): the number of values <= u. They form a
 * prefix for any u in [0, 1): cum is a cumulative sum of nonnegative weights,
 * and its last value is set to 1.0, which exceeds u as does any value rounded
 * above it. */
static int64_t upper_bound(const double *cum, int64_t n, double u)
{
    const double *base = cum;
    while (n > 1) {
        int64_t half = n >> 1;
        base = base[half] <= u ? base + half : base;
        n -= half;
    }
    return (base - cum) + (*base <= u);
}

/* Steps a market from its initial state for `horizon` steps.
 *
 * n agents, the first k of them producers, the first n_random of those
 * drawing a fresh bit every step. endo_states is the size of the
 * endogenous part of the information (0 if none); cum, of length n_cum,
 * holds the cumulative exogenous weights (NULL if none), and queue receives
 * each refill of n_queue states. money, stocks and last_seen are updated in
 * place; m and s are scratch of length n. Records prices, base-10 log
 * returns (horizon - 1 of them), states, taus (0 on a state's first
 * occurrence) and the speculators' capital sum.
 *
 * Returns horizon, or the first step t whose price is not finite and
 * positive or whose return's ratio price / before is not (before is 1.0 at
 * t = 0); it stops there, with prices[t] written and nothing settled.
 */
int64_t specmarket_run(bitgen_t *bg, int64_t horizon, int64_t n, int64_t k, int64_t n_random,
                    double gamma, double eps, int64_t endo_states,
                    const double *cum, int64_t n_cum, int64_t *queue, int64_t n_queue,
                    const uint8_t *strategies, int64_t mu, int64_t *last_seen,
                    double *money, double *stocks, double *m, double *s,
                    double *prices, double *returns, int64_t *mus, int64_t *taus,
                    double *capital)
{
    const int64_t n_spec = n - k;
    double price = 1.0, before = 1.0;
    int64_t endo = 0;
    for (int64_t t = 0; t < horizon; t++) {
        if (t > 0) {
            if (endo_states) {
                int64_t bit;
                if (price > before) {
                    bit = 1;
                } else if (price < before) {
                    bit = 0;
                } else {
                    bit = bg->next_double(bg->state) < 0.5;
                }
                endo = ((mu % endo_states) << 1 | bit) % endo_states;
            }
            if (cum) {
                int64_t pos = (t - 1) % n_queue;
                if (pos == 0) {
                    for (int64_t i = 0; i < n_queue; i++) {
                        queue[i] = upper_bound(cum, n_cum, bg->next_double(bg->state));
                    }
                }
                mu = endo_states ? queue[pos] * endo_states + endo : queue[pos];
            } else {
                mu = endo;
            }
        }
        mus[t] = mu;
        taus[t] = last_seen[mu] >= 0 ? t - last_seen[mu] : 0;
        last_seen[mu] = t;
        const uint8_t *row = strategies + mu * n;
        uint64_t wide = 0;
        for (int64_t i = 0; i < n_random; i++) {
            int buy = bg->next_double(bg->state) < 0.5;
            m[i] = (money[i] * gamma) * (double)buy;
            s[i] = (stocks[i] * gamma) * (double)!buy;
            wide |= order_wide(m[i]);
        }
        for (int64_t i = n_random; i < n; i++) {
            m[i] = (money[i] * gamma) * (double)row[i];
            s[i] = (stocks[i] * gamma) * (double)!row[i];
            wide |= order_wide(m[i]);
        }
        before = price;
        totals orders = pairwise2(m, s, n);
        price = ((0.0 + orders.a) + eps) / ((0.0 + orders.b) + eps);
        prices[t] = price;
        double ratio = price / before;
        if (!(price > 0.0 && price < INFINITY && ratio > 0.0 && ratio < INFINITY)) {
            return t;
        }
        if (t > 0) {
            returns[t - 1] = log10(ratio);
        }
        for (int64_t i = k; i < n; i++) {
            double tmp = s[i] * price;
            tmp -= m[i];
            money[i] += tmp;
        }
        const int fast = fma_step(price, wide);
        const double y = 1.0 / price;
        for (int64_t i = k; i < n; i++) {
            double tmp = settle_quotient(m[i], price, y, fast);
            tmp -= s[i];
            stocks[i] += tmp;
        }
        totals held = pairwise2(money + k, stocks + k, n_spec);
        capital[t] = (0.0 + held.a) + (0.0 + held.b);
    }
    return horizon;
}

/* ------------------------------------------------------------------------
 * The span-counting birth chain of specmarket.analytics.dim_distribution.
 *
 * Steps first .. last of one walk, so that a walk resumes where it stopped;
 * step s updates cells start .. min(start + s, cap) with the numpy loop's
 * three operations per cell, in its order: moved = p * escape, then
 * p[j] = (p[j] - moved[j]) + moved[j - 1]. The first step whose moved amounts
 * are all zero is the fixed point: the chain stops after it and returns it,
 * and every later step would leave p as it is. It returns 0 if no step up to
 * last was the fixed point. Every p is >= +0, so the + 0.0 at the bottom cell
 * and the writes of that last step leave the bits as the numpy loop leaves
 * them.
 */
int64_t specmarket_dim_chain(const double *escape, int64_t start, int64_t cap, int64_t first,
                             int64_t last, double *p)
{
    for (int64_t s = first; s <= last; s++) {
        int64_t top = start + s < cap ? start + s : cap;
        double below = 0.0;
        int moving = 0;
        for (int64_t j = start; j <= top; j++) {
            double moved = p[j] * escape[j];
            p[j] = (p[j] - moved) + below;
            moving |= moved != 0.0;
            below = moved;
        }
        if (!moving)
            return s;
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * CSV rows, each float64 cell exactly as Python's repr(float).
 *
 * The digits are Ryu's (Adams, PLDI 2018): the shortest decimal that reads
 * back as the same double and, among those, the nearest to it, ties to
 * even, as CPython's dtoa mode 0. Its 125-bit power-of-5 tables are filled
 * from Python's exact integers by specmarket._kernel when it loads the
 * library.
 */

#define POW5_BITS 125

/* (low, high) of 5^i scaled to 125 bits, for the exponents of doubles >= 1,
 * and of floor(2^(bits(5^i) - 1 + 125) / 5^i) + 1, for those of doubles < 1 */
uint64_t specmarket_pow5[326][2];
uint64_t specmarket_pow5_inv[342][2];

static const uint64_t pow10_table[20] = {
    UINT64_C(1), UINT64_C(10), UINT64_C(100), UINT64_C(1000), UINT64_C(10000),
    UINT64_C(100000), UINT64_C(1000000), UINT64_C(10000000), UINT64_C(100000000),
    UINT64_C(1000000000), UINT64_C(10000000000), UINT64_C(100000000000),
    UINT64_C(1000000000000), UINT64_C(10000000000000), UINT64_C(100000000000000),
    UINT64_C(1000000000000000), UINT64_C(10000000000000000), UINT64_C(100000000000000000),
    UINT64_C(1000000000000000000), UINT64_C(10000000000000000000),
};

/* a * b, from 32-bit halves: returns the high 64 bits and stores the low 64 */
static uint64_t mul_128(uint64_t a, uint64_t b, uint64_t *lo)
{
    uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    uint64_t mid = (p00 >> 32) + (uint32_t)p01 + (uint32_t)p10;
    *lo = mid << 32 | (uint32_t)p00;
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* floor(m * mul / 2^j) for a 125-bit mul and 64 < j < 128 */
static uint64_t mul_shift(uint64_t m, const uint64_t mul[2], int32_t j)
{
    uint64_t low0, low1;
    uint64_t high0 = mul_128(m, mul[0], &low0);
    uint64_t high1 = mul_128(m, mul[1], &low1);
    uint64_t mid = high0 + low1;
    high1 += mid < high0;
    return high1 << (128 - j) | mid >> (j - 64);
}

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static int32_t log10_pow2(int32_t e)
{
    return (int32_t)(((uint32_t)e * 78913) >> 18);
}

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static int32_t log10_pow5(int32_t e)
{
    return (int32_t)(((uint32_t)e * 732923) >> 20);
}

/* the bit length of 5^e for 0 <= e <= 3528 */
static int32_t pow5_bits(int32_t e)
{
    return (int32_t)((((uint32_t)e * 1217359) >> 19) + 1);
}

static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static int multiple_of_pow2(uint64_t v, int32_t p)
{
    return (v & ((UINT64_C(1) << p) - 1)) == 0;
}

/* The shortest round-trip digits of a finite nonzero double as digits * 10^*exponent
 * (Ryu's d2d). */
static uint64_t shortest(uint64_t mantissa, uint32_t biased, int32_t *exponent)
{
    int32_t e2 = (biased ? (int32_t)biased : 1) - 1023 - 52 - 2;
    uint64_t m2 = biased ? UINT64_C(1) << 52 | mantissa : mantissa;
    int accept_bounds = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = mantissa != 0 || biased <= 1;  /* 0 where the gap below is half as wide */
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;  /* did the cut digits of vm, vr hold only zeros? */
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        int32_t j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        e10 = q;
        vr = mul_shift(mv, specmarket_pow5_inv[q], j);
        vp = mul_shift(mv + 2, specmarket_pow5_inv[q], j);
        vm = mul_shift(mv - 1 - mm_shift, specmarket_pow5_inv[q], j);
        if (q <= 21) {  /* at most one of mv - 1 - mm_shift, mv and mv + 2 is a multiple of 5 */
            if (mv % 5 == 0) {
                vr_zeros = multiple_of_pow5(mv, q);
            } else if (accept_bounds) {
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= multiple_of_pow5(mv + 2, q);
            }
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - q;
        int32_t j = q - (pow5_bits(i) - POW5_BITS);
        e10 = q + e2;
        vr = mul_shift(mv, specmarket_pow5[i], j);
        vp = mul_shift(mv + 2, specmarket_pow5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, specmarket_pow5[i], j);
        if (q <= 1) {  /* mv has two trailing zero bits, mv + 2 one, mv - 1 - mm_shift mm_shift */
            vr_zeros = 1;
            if (accept_bounds) {
                vm_zeros = mm_shift == 1;
            } else {
                vp--;
            }
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }
    /* cut digits while the interval (vm, vp) still holds a shorter number */
    int32_t removed = 0;
    uint32_t last = 0;
    while (vp / 10 > vm / 10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (uint32_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_zeros) {  /* vm itself is in the interval: cut its trailing zeros too */
        while (vm % 10 == 0) {
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_zeros && last == 5 && vr % 2 == 0) {
        last = 4;  /* exactly half way: round to even */
    }
    *exponent = e10 + removed;
    return vr + ((vr == vm && (!accept_bounds || !vm_zeros)) || last >= 5);
}

static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the number of decimal digits of v */
static int decimal_length(uint64_t v)
{
    int n = 1;
    while (n < 20 && v >= pow10_table[n]) {
        n++;
    }
    return n;
}

/* writes the decimal digits of v to the bytes before end, two at a time, in 32-bit steps */
static void put_digits(char *end, uint64_t v)
{
    while (v >= 100000000) {
        uint32_t low = (uint32_t)(v % 100000000);
        v /= 100000000;
        for (int i = 0; i < 4; i++) {
            end -= 2;
            memcpy(end, DIGIT_PAIRS + 2 * (low % 100), 2);
            low /= 100;
        }
    }
    uint32_t w = (uint32_t)v;
    while (w >= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (w % 100), 2);
        w /= 100;
    }
    if (w >= 10) {
        memcpy(end - 2, DIGIT_PAIRS + 2 * w, 2);
    } else {
        end[-1] = (char)('0' + w);
    }
}

static char *put_int(char *p, int64_t v)
{
    if (v < 0) {
        *p++ = '-';
    }
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int n = decimal_length(u);
    put_digits(p + n, u);
    return p + n;
}

/* repr(x): fixed notation for -4 < decpt <= 16, where the value is 0.d1d2... * 10^decpt */
static char *put_double(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mantissa = bits & ((UINT64_C(1) << 52) - 1);
    uint32_t biased = (uint32_t)(bits >> 52) & 0x7ff;
    if (biased == 0x7ff && mantissa) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63) {
        *p++ = '-';
    }
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (biased == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int32_t exponent;
    uint64_t digits = shortest(mantissa, biased, &exponent);
    int n = decimal_length(digits);
    int decpt = n + exponent;
    if (decpt <= -4 || decpt > 16) {  /* d.ddde+XX: the digits go one byte right, then d moves back */
        put_digits(p + 1 + n, digits);
        p[0] = p[1];
        if (n > 1) {
            p[1] = '.';
            p += n + 1;
        } else {
            p += 1;
        }
        int e = decpt - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100) {
            *p++ = (char)('0' + e / 100);
            e %= 100;
        }
        memcpy(p, DIGIT_PAIRS + 2 * e, 2);
        return p + 2;
    }
    if (decpt <= 0) {  /* 0.000ddd */
        p[0] = '0';
        p[1] = '.';
        for (int i = 0; i < -decpt; i++) {
            p[2 + i] = '0';
        }
        p += 2 - decpt + n;
        put_digits(p, digits);
        return p;
    }
    if (decpt >= n) {  /* ddd000.0 */
        put_digits(p + n, digits);
        for (int i = n; i < decpt; i++) {
            p[i] = '0';
        }
        p[decpt] = '.';
        p[decpt + 1] = '0';
        return p + decpt + 2;
    }
    put_digits(p + 1 + n, digits);  /* dd.ddd: the digits go one byte right, then dd moves back */
    for (int i = 0; i < decpt; i++) {
        p[i] = p[i + 1];
    }
    p[decpt] = '.';
    return p + n + 1;
}

enum { CELL_FLOAT = 0, CELL_INT = 1 };

/* Writes n_rows rows "a,b,c\n" of n_cols columns to out and returns the bytes written.
 *
 * values[c] is a column of float64 (CELL_FLOAT) or int64 (CELL_INT) values. A
 * row r where masks[c] is not NULL and masks[c][r] is nonzero gets an empty
 * cell. out must hold 24 bytes per float cell, 20 per int cell and n_cols
 * bytes per row.
 */
int64_t specmarket_write_rows(int64_t n_rows, int64_t n_cols, const int64_t *kinds,
                              const void *const *values, const uint8_t *const *masks, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < n_rows; r++) {
        for (int64_t c = 0; c < n_cols; c++) {
            if (c) {
                *p++ = ',';
            }
            if (masks[c] && masks[c][r]) {
                continue;
            }
            if (kinds[c] == CELL_FLOAT) {
                p = put_double(p, ((const double *)values[c])[r]);
            } else {
                p = put_int(p, ((const int64_t *)values[c])[r]);
            }
        }
        *p++ = '\n';
    }
    return p - out;
}
