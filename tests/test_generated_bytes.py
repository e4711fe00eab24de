"""Generated datasets keep their bytes across versions: the SHA-256 of every
file that gen_dataset writes at two fixed settings is pinned here.
"""

import hashlib
import os

import pytest

from nuseg.data import BACKGROUND_KINDS, DatasetTemplate, gen_dataset

# SHA-256 of every file that gen_dataset writes for two fixed settings,
# taken from the generator as it was when the distribution became constants
SEED0_64PX = {
    "manifest.csv": "b81dcdd599455b251ba4030583a5bed0c1a6c989602619a3b2b0d4d141951486",
    "sample_0000.img.pgm": "21371b1cf395b7d5f1372c1f1a8469b7b92d0318c7d091dad84f0698fd1ca9e8",
    "sample_0000.mask.pgm": "02816817273d70bbf7d64e27eee6c3e899a057476716c8ce39d3a575a91d1523",
    "sample_0001.img.pgm": "6001ccf6983ecf2c0890f6e60c6806ce00ca75cdca70ab74d6a0fd134589f152",
    "sample_0001.mask.pgm": "336a55f7b7e0c74273e67943bcc8499233a67f7a9ab37dea63d3cbdf08ebfda9",
    "sample_0002.img.pgm": "99a7917e03fdfa58050a51da1203122f7e51b32b42f83125aaf87ebb83f831ed",
    "sample_0002.mask.pgm": "f5dffa7e0350121bc5423bde9319c6ed1bf3b8457786e493ae7d6eda9944d124",
    "sample_0003.img.pgm": "e42184d6932214949e718a4c974fdd6b1bc52fc7d570d25d800ed443f654b7a1",
    "sample_0003.mask.pgm": "80e7db74b15bc1435d06cf79388ec39ab7e327ed82e1ca18a0c96120cadebc2b",
    "sample_0004.img.pgm": "941acf3ce3bccd60389eadfed48068fcde5e55d2ab38dc34c8b1159cfaf4423f",
    "sample_0004.mask.pgm": "2c7f001b9228e28e6058f20a10232f1a7c0c77e10a45810c89dd37758e6de9d8",
    "sample_0005.img.pgm": "5edb99cd004cf63c12f1c6214a999aba9c71354865497f8661339eb626682c41",
    "sample_0005.mask.pgm": "fe8957a1a566c83b05620b064a46524f50ee53421a06e88515a07613270db835",
    "sample_0006.img.pgm": "c0dd7cc1ce64a8a51b2f431acc7fca5799c47d7e8edf7b3571ad926ebc8fc3aa",
    "sample_0006.mask.pgm": "98e834f7ed3d37f7a118bd4f27d1a0ca79badba7aceccf74cf27473458d4a34c",
    "sample_0007.img.pgm": "7a85de7c9a01ec14327988344e40f4229a70d83de3d1b7f40528c65eba0bafe0",
    "sample_0007.mask.pgm": "3517a7b22db461b68cc6a445ab656d5cd5600e59b5dfbf7b71a0aecb09aff749",
    "sample_0008.img.pgm": "3e40f94832fb95e4038bf44916b9e5e57dda485e82ee568c6b6325485c2116b6",
    "sample_0008.mask.pgm": "0dc8feb21a91b115debe7a9beace626aa058bb2a2f2c400476bf404de5542d89",
    "sample_0009.img.pgm": "952166f22b8845f8df5f37868a3c0e03816066a1e11385d8b9a11658e2a710c5",
    "sample_0009.mask.pgm": "66ed11b2a33cb1cb2c9b535b25636c7b56f130e21d5170f9fde146575c874200",
    "sample_0010.img.pgm": "0a07c55f2eb7b3070dc8114667019b416a767b33252b353747615f3037179ef3",
    "sample_0010.mask.pgm": "b8797d86d6f60bfa2dbb950d1081e5a037b38c822339a14c3581f192a7964451",
    "sample_0011.img.pgm": "feace64d0641769ed90b65f8c38caadf60037b4a448e6832865b61f5fa761d59",
    "sample_0011.mask.pgm": "be8570c97a99c1aa6e5172ae9b588453bb64281997acb0e7ea461cc0f4ebed0a",
    "sample_0012.img.pgm": "26d18108b463ced06c41a36babe02c2bce11c93b17d0404d9cefbbf7c45ea4fa",
    "sample_0012.mask.pgm": "b90d1389392a5b34bec3c91c53a498329680917287c57aa979aa109b46c7aa7a",
    "sample_0013.img.pgm": "ef44cafe79b011980c043b37a4b0263889483829ab901f404e1d3f66db70e911",
    "sample_0013.mask.pgm": "7cd4e86de22dbd6b41141c03c7f91a8f3a76683240731a6419e3ca15bc599a57",
    "sample_0014.img.pgm": "5b6153b18485bac0ef175a17c1775dc9c4c052c507c21763148c188245ac8456",
    "sample_0014.mask.pgm": "95ff502f296c4e5c3d0be65dde5f7871467f5f18d3f96eb878ca267e39813977",
    "sample_0015.img.pgm": "7c6cbc407524d3c881f45b93cc390372c1273de0021bf8a1fab382fc7871a732",
    "sample_0015.mask.pgm": "3666de8aa9a88a2f84da9ccdab6a3b897878eda8cbda53930102e881c61ddb1b",
    "sample_0016.img.pgm": "69962d3a1373f4664b618ddac28b7d3d7bd280e5c0e795db770c37bbe495a76a",
    "sample_0016.mask.pgm": "7a55c67a3cda8eeab679a16815edd905019bb1a789f4a9788b71ad927ff8bf38",
    "sample_0017.img.pgm": "650ac27c7387877d943b6e118b9ea67fc4553012849570aeb492551a9bf4001b",
    "sample_0017.mask.pgm": "4ce8166eca58c60ff682765836a72a5afcadad3ec02ff17c687249d508beb2c9",
    "sample_0018.img.pgm": "218a879dfbc1668253d3cee2f2bcdd858c7761dec685da9105444e49bb02c5ea",
    "sample_0018.mask.pgm": "58e76f34c437429145cd58d1cca2bdd014ee7c2b62a03fb770dcf5f9e49e84c7",
    "sample_0019.img.pgm": "edbe6aef28157fb2688a32ff932506c49d4f0a5831d37df7bc4675278a8f3aea",
    "sample_0019.mask.pgm": "00dd8274b691d3b9780dcc866a90ef566de54933d9cd39d2bce08cb9d5a540b5",
    "sample_0020.img.pgm": "2f31dc2303d51f6b10c2f62f51b146c97f49bcec431d7a8f2c4931a7df180e01",
    "sample_0020.mask.pgm": "b003c16b63b563b31edff5620830cf7e1574636c365cba89dc6b6704a6cc5d0c",
    "sample_0021.img.pgm": "14ecfe595c80c6d6b3318a23632d5377cab0076ca699dee0c47ff57d501dcd06",
    "sample_0021.mask.pgm": "a1c3e61b3e553ed9b1ce2a901717002fab98f9dd18a348c7fb5c02a2d524e15b",
    "sample_0022.img.pgm": "2339eba7f36533a2924d72f72005ce533bcc5585712c68830841dc47a382465f",
    "sample_0022.mask.pgm": "c27adc67541a9e34e8bd20fd849d3f16b0f8ba4f0c0c03a60cd958acf8bbe7da",
    "sample_0023.img.pgm": "604d909a9fed801f7a6df6fab3d6100721c186913a42972ad59a2ff2bc6e9291",
    "sample_0023.mask.pgm": "05579517ddc7d5fa47eaf1f9b76e69e863bfb28294f5ce2d7fa8d99ab3b86892",
}

SEED7_128PX = {
    "manifest.csv": "7cacc351bc51a4d40d7f90a51746b8753ec78b4419970d409228ec0458970d91",
    "sample_0000.img.pgm": "2448703b04718779a7f00a350b74414bff6813463e18b8865eae87ef2b9b1dc7",
    "sample_0000.mask.pgm": "da12ea5e316cf1eb868f566fc4cae80dcb892fbc6bc10463a3afb1018f4e2ebd",
    "sample_0001.img.pgm": "c303b87abcd171a6242810c53b5c52b9caa1910ebd70740901e3e11164eae158",
    "sample_0001.mask.pgm": "7f192b95a5d61d29829f8abbb3962bd4f188d88f48cd5ae6e6f3f10fbba238e7",
    "sample_0002.img.pgm": "30a1661bc6553bb5af5c74a9631b0f1ccc4d3fb7cbcd7fbd2a37d4d3e22c12e8",
    "sample_0002.mask.pgm": "942d939690e7df462e7f688efd3ca7a73e360efdea4642abf69726656411ec44",
    "sample_0003.img.pgm": "25531a8f5c4402454dbfcc58f7a59a41b2e7c4bc83102cf38f804b6feba6ae88",
    "sample_0003.mask.pgm": "351e1ed3a174a31ee128709834d1e1936fe380473ca07c256431be1af91d9ae7",
    "sample_0004.img.pgm": "93171b97f938f5838a2e25ad3bcd3201c3d7d330d2675ed529292c83abf3d483",
    "sample_0004.mask.pgm": "bfc5d6cadaa29db30d792b1a79dadd1d5e4943138b81427dfccd59f397fae63e",
    "sample_0005.img.pgm": "c6448d554a62149422117e45a769fa9b24626367349d3093c1dc2c10eb39ce50",
    "sample_0005.mask.pgm": "f98e1cf65daeb846881b404699135fa11dcfdc46c7747c55acac5e09f90460e9",
    "sample_0006.img.pgm": "023d819a2c07262fc3241ba16800eface3567d87b2ddf98a4b576ec53768028c",
    "sample_0006.mask.pgm": "21504ab57e80ba3cd862e6d20c93f4fa865a74d19c17e43f38194b9d293d0c5f",
    "sample_0007.img.pgm": "f08ed40b06aa9e885c2d321c6cb2d6afb319e27f05f212d319375dc302c876cc",
    "sample_0007.mask.pgm": "a611a187689c1aa1ee5759052163aa3483d7b2f0c990bd0f9df915c2f2291421",
}


class TestGeneratedBytes:
    @pytest.mark.parametrize("seed,n,size,max_targets,want", [
        (0, 24, 64, 2, SEED0_64PX),
        (7, 8, 128, 4, SEED7_128PX),
    ], ids=["seed0-64px", "seed7-128px"])
    def test_files_keep_their_bytes(self, tmp_path, seed, n, size, max_targets, want):
        """Same seed, same files: the distribution constants and their draw
        order are pinned across versions, not only within one."""
        template = DatasetTemplate(width=size, height=size, max_targets=max_targets)
        specs = gen_dataset(tmp_path, n, template, seed)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(tmp_path))}
        assert got == want
        assert {s.background.kind for s in specs} == set(BACKGROUND_KINDS)
