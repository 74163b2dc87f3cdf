from cfk import gf2


def test_rank_identity():
    assert gf2.rank([0b001, 0b010, 0b100]) == 3


def test_rank_dependent_rows():
    assert gf2.rank([0b011, 0b101, 0b110]) == 2
    assert gf2.rank([0, 0]) == 0


def test_image_and_kernel_counts():
    cols = [0b01, 0b01, 0b10]
    basis, kernel = gf2.image_and_kernel(cols)
    assert basis.rank == 2
    assert kernel == [0b011]  # first two columns are equal


def test_kernel_members_map_to_zero():
    cols = [0b110, 0b011, 0b101, 0b000]
    _, kernel = gf2.image_and_kernel(cols)
    for combo in kernel:
        assert gf2.apply_columns(cols, combo) == 0
    assert gf2.rank(cols) + len(kernel) == len(cols)


def tagged_basis(vectors: list[int]) -> gf2.XorBasis:
    """Basis where vectors[k] carries bit k of the combo."""
    basis = gf2.XorBasis()
    for k, v in enumerate(vectors):
        assert basis.add(v, 1 << k)[0]
    return basis


def test_coordinates_of_known_combination():
    basis = tagged_basis([0b0110, 0b0011, 0b1000])
    assert basis.reduce(0b0110 ^ 0b0011) == (0, 0b011)
    assert basis.reduce(0b0110 ^ 0b0011 ^ 0b1000) == (0, 0b111)
    assert basis.reduce(0b1000) == (0, 0b100)


def test_coordinates_of_zero_target():
    assert tagged_basis([0b0110, 0b0011]).reduce(0) == (0, 0)
    assert gf2.XorBasis().reduce(0) == (0, 0)


def test_vector_outside_span_leaves_remainder():
    basis = tagged_basis([0b0110, 0b0011])
    remainder, _ = basis.reduce(0b0100)
    assert remainder != 0
    # the remainder differs from the target by a member of the span
    assert basis.reduce(remainder ^ 0b0100)[0] == 0


def test_image_and_kernel_basis_spans_the_columns():
    cols = [0b110, 0b011, 0b101, 0b000]
    basis, _ = gf2.image_and_kernel(cols)
    assert basis.rank == 2
    for c in cols:
        assert basis.reduce(c)[0] == 0
    assert basis.reduce(0b001)[0] != 0
