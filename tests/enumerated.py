"""One object that `twoline enumerate` lists, for the property tests."""
from itertools import islice

import twoline.objects
from twoline import cli, families

PARSER = cli.build_parser()


def nth_object(family, sizes, index, part_set="s1", mode="non_self_crossing"):
    """Object `index` (or the last, if there are fewer) of the `enumerate`
    family at the given sizes, parsed from the same argv as the command line;
    None if the family is empty there."""
    names, _, call, _, _ = families.FAMILIES[family]
    argv = ["enumerate", family, "--set", part_set, "--mode", mode]
    for name, size in zip(names, sizes):
        argv += [f"--{name}", str(size)]
    obj = None
    for obj in islice(call(twoline.objects, PARSER.parse_args(argv)), index + 1):
        pass
    return obj
