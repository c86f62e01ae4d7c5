"""Tables 1-3 of the paper at the sampled parameters, transcribed by hand.

One entry per catalog row that ``lcplab tables`` samples, in table
order: the realised flat dimensions (column "dim u") and the lattice
column ("yes", "no" or "some_parameters").  ``spectrum`` is given for
the rows whose ad-matrix on the codimension-one abelian ideal has
spectrum {1, -1, 0, ...}; their lattices are the closed-form family
t0 = arccosh(m/2).  The benchmark compares lcplab's output with this
list; it is not read from lcplab or from a saved lcplab output.
"""

E11 = (1, -1)

ROWS = [
    # table, name, params, dims, lattice, spectrum
    (1, "e(1,1)", "-", [1], "yes", E11),
    (2, "e(1,1)+R", "-", [1], "yes", E11 + (0,)),
    (2, "g_{4.2}^{-2}", "-", [1], "no", None),
    (2, "g_{4.5}^{p,-p-1}", "p=-1/4", [1], "some_parameters", None),
    (2, "g_{4.5}^{p,-p-1}", "p=-1/2", [1, 2], "some_parameters", None),
    (2, "g_{4.6}^{-2p,p}", "p=1", [1, 2], "some_parameters", None),
    (3, "e(1,1)+R2", "-", [1], "yes", E11 + (0, 0)),
    (3, "g_{4.2}^{-2}+R", "-", [1], "no", None),
    (3, "g_{4.5}^{p,-p-1}+R", "p=-1/4", [1], "some_parameters", None),
    (3, "g_{4.5}^{p,-p-1}+R", "p=-1/2", [1, 2], "some_parameters", None),
    (3, "g_{4.6}^{-2p,p}+R", "p=1", [1, 2], "some_parameters", None),
    (3, "g_{5.7}^{p,q,r}", "p=1/6,q=1/3,r=1/2", [1], "some_parameters", None),
    (3, "g_{5.7}^{p,q,r}", "p=1/4,q=1/4,r=1/2", [1, 2], "some_parameters", None),
    (3, "g_{5.7}^{p,q,r}", "p=1/3,q=1/3,r=1/3", [1, 3], "some_parameters", None),
    (3, "g_{5.8}^{-1}", "-", [1], "yes", E11 + (0, 0)),
    (3, "g_{5.9}^{p,-2-p}", "p=1", [1], "no", None),
    (3, "g_{5.9}^{p,-2-p}", "p=-1", [1, 2], "no", None),
    (3, "g_{5.11}^{-3}", "-", [1], "no", None),
    (3, "g_{5.13}^{-1-2q,q,r}", "q=-1/4,r=1", [1, 2], "some_parameters", None),
    (3, "g_{5.13}^{-1-2q,q,r}", "q=-1/3,r=1", [1, 2, 3], "some_parameters", None),
    (3, "g_{5.16}^{-1,q}", "q=1", [2], "no", None),
    (3, "g_{5.17}^{p,-p,r}", "p=1,r=1", [2], "some_parameters", None),
    (3, "g_{5.19}^{p,-2p-2}", "p=1", [1], "no", None),
    (3, "g_{5.23}^{-4}", "-", [1], "no", None),
    (3, "g_{5.25}^{p,4p}", "p=1", [1], "no", None),
    (3, "g_{5.33}^{-1,-1}", "-", [1], "yes", None),
    (3, "g_{5.35}^{-2,0}", "-", [1, 2], "yes", None),
]


def rows() -> list:
    keys = ("table", "name", "params", "dims", "lattice", "spectrum")
    return [dict(zip(keys, r)) for r in ROWS]
