"""The counts of the table chains against their generating functions.

Each row's two chains have one generating function, a ratio of integer
polynomials whose denominator has constant term 1.  Its expansion is
computed here with integer arithmetic only, by the recurrence that the
denominator gives, and compared with the block program far past any
size a tree could reach.
"""

from chainperm import count_chain, formula_table

N = 300

# Each row's generating function as the coefficients of its numerator,
# lowest degree first, and the factors of its denominator.
ONE_MINUS_X = [1, -1]
ONE_PLUS_X = [1, 1]
GOLDEN = [1, -1, -1]  # 1 - x - x^2
X_1_MINUS_X2_PLUS_X3 = [0, 1, 0, -1, 1]  # x(1 - x^2 + x^3)
GENERATING_FUNCTIONS = {
    # x(1 + x^3 - x^4) / (1 - x)^2
    "T31": ([0, 1, 0, 0, 1, -1], [ONE_MINUS_X] * 2),
    # x(1 + x) / (1 - x - x^2)
    "T32": ([0, 1, 1], [GOLDEN]),
    # x(1 - x^2 + x^3) / ((1 - x)^3 (1 + x))
    "T33": (X_1_MINUS_X2_PLUS_X3, [ONE_MINUS_X] * 3 + [ONE_PLUS_X]),
    # x / (1 - 2x)
    "T34": ([0, 1], [[1, -2]]),
    "T35": (X_1_MINUS_X2_PLUS_X3, [ONE_MINUS_X] * 3 + [ONE_PLUS_X]),
    # x(1 - x^2 + x^3) / ((1 - x)^2 (1 + x) (1 - x - x^2))
    "T41": (X_1_MINUS_X2_PLUS_X3, [ONE_MINUS_X] * 2 + [ONE_PLUS_X, GOLDEN]),
    # x(1 - x^2 + x^3) / ((1 - x) (1 + x) (1 - 2x))
    "T42": (X_1_MINUS_X2_PLUS_X3, [ONE_MINUS_X, ONE_PLUS_X, [1, -2]]),
    # x(1 - x + 2x^3 - x^4) / ((1 - x)^4 (1 + x))
    "T43": ([0, 1, -1, 0, 2, -1], [ONE_MINUS_X] * 4 + [ONE_PLUS_X]),
    "T44": ([0, 1, -1, 0, 2, -1], [ONE_MINUS_X] * 4 + [ONE_PLUS_X]),
}


def multiply(p, q):
    product = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            product[i + j] += a * b
    return product


def expand(numerator, factors, n):
    """The coefficients of x^0 to x^n of numerator / (product of factors):
    c_k = numerator_k - sum over i >= 1 of denominator_i c_(k - i)."""
    denominator = [1]
    for factor in factors:
        denominator = multiply(denominator, factor)
    assert denominator[0] == 1
    coefficients = []
    for k in range(n + 1):
        known = numerator[k] if k < len(numerator) else 0
        tail = sum(d * coefficients[k - i] for i, d in enumerate(denominator[1 : k + 1], 1))
        coefficients.append(known - tail)
    return coefficients


def test_block_counts_expand_the_generating_functions_to_300():
    assert sorted(GENERATING_FUNCTIONS) == sorted(f.tag for f in formula_table())
    for formula in formula_table():
        series = expand(*GENERATING_FUNCTIONS[formula.tag], N)
        for chain in (formula.chain_231, formula.chain_312):
            count_chain(N, chain, force=True)
            counts = [count_chain(n, chain, force=True).total for n in range(1, N + 1)]
            assert counts == series[1:], (formula.tag, chain.text())
